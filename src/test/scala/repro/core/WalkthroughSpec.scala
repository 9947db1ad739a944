package repro.core

import repro.SparkSpec

/** Pins the worked example's Tables 12–14 (paper §4) at three splits: the
  * s1 metric pairs, the raw and BY-adjusted p-values and the flag. Doubles
  * are written with `Double.toString`, which round-trips exactly, so the
  * comparison is bit-for-bit.
  */
class WalkthroughSpec extends SparkSpec {

  test("Tables 12-14 at three splits: pairs, p-values and flag match the golden fixture") {
    val (pairs, s1) = Walkthrough.tables12to14(spark, splits = 3)
    assert(pairs.size == 3)
    val values = pairs.zipWithIndex.flatMap { case ((b, d), i) => Seq(s"b_$i" -> b, s"d_$i" -> d) } ++
      Seq("p0", "p1", "p2", "p0_adj", "p1_adj", "p2_adj").map(c => c -> s1.getAs[Double](c))
    val lines = values.map { case (k, v) => s"$k,${java.lang.Double.toString(v)}" } :+
      s"flag,${s1.getAs[String]("flag")}"
    val src = scala.io.Source.fromResource("golden/walkthrough_tables12to14_s3.csv")
    val expected = try src.getLines().drop(1).toSeq finally src.close()
    assert(lines == expected)
  }
}
