package repro.bench

import repro.SparkSpec
import repro.core.{Flag, Walkthrough}

/** Reproduces the paper's worked example (Tables 6–14) end-to-end: the
  * s1/s2/s3 specifications on the EEG-outliers cell, random-search seed
  * aggregation, the 20-split metric pairs, and the t-test + BY flag.
  */
class Tables06to14WalkthroughBench extends SparkSpec {

  test("Tables 6-9: one-split walkthrough (spec, model table, method table)") {
    Walkthrough.tables6to9(spark)
  }

  test("Tables 10-11: five random-search seeds with searchK=2") {
    Walkthrough.tables10to11(spark)
  }

  test("Tables 12-14: 20 splits, t-tests, BY correction — flag is P") {
    val splits = 20
    val (pairs, s1) = Walkthrough.tables12to14(spark, splits)
    assert(pairs.size == splits)
    // Paper Table 12: cleaning improves accuracy on (nearly) every split...
    val improved = pairs.count { case (b, d) => d > b }
    assert(improved >= (0.8 * splits).toInt, s"improved on $improved/$splits splits")
    // ...Table 13: p0 and p1 significant, p2 ~ 1...
    val (p0, p1, p2) = (s1.getAs[Double]("p0"), s1.getAs[Double]("p1"), s1.getAs[Double]("p2"))
    assert(p0 < 0.05 && p1 < 0.05, s"p0=$p0 p1=$p1")
    assert(p2 > 0.5, s"p2=$p2")
    // ...Table 14: still P after BY correction.
    assert(s1.getAs[String]("flag") == Flag.Positive)
  }
}
