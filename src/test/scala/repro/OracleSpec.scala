package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Self-tests of the DuckDB oracle that the query and cleaning tests compare
  * against: it must accept a correct result and reject wrong rows and
  * mismatched columns.
  */
class OracleSpec extends SparkSpec {

  import spark.implicits._

  private lazy val t: DataFrame =
    Seq(("A", 1.5), ("A", 2.0), ("N", 3.25), ("R", 0.5), ("R", 1.0), ("R", 4.0))
      .toDF("flag", "x")
  private val sql =
    "SELECT flag, COUNT(*) AS cnt, SUM(CAST(x AS DOUBLE)) AS total FROM t GROUP BY flag"

  test("oracle agrees with Spark on a grouped aggregate") {
    val got = t.groupBy("flag").agg(count(lit(1)).as("cnt"), sum("x").as("total"))
    Oracle.assertEquivalent(got, sql, "t" -> t)
  }

  test("oracle catches wrong results") {
    val wrong = t.groupBy("flag").agg((count(lit(1)) + 1).as("cnt"), sum("x").as("total"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sql, "t" -> t)
    }
  }

  test("oracle rejects column mismatches") {
    val got = t.groupBy("flag").agg(count(lit(1)).as("n"), sum("x").as("total"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(got, sql, "t" -> t)
    }
  }
}
