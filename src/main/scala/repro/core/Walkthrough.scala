package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.data.Datasets

/** Reproduces the paper's worked example (Tables 6–14): the specification
  * s1 = (EEG, outliers, IQR, mean imputation, logistic regression, BD), its
  * model-selection variant s2, and its method-selection variant s3. Every
  * table is a view over the engine: the EEG × outliers measurements from
  * [[Runner.measurements]] and the pairs and flags of [[Relations]].
  */
object Walkthrough {

  val S1Detect = "IQR"
  val S1Repair = "impute_mean"
  val S1Model  = "logistic_regression"

  private val eeg = Datasets.byName("EEG")

  private def fmt(d: Double): String = f"$d%.6f"

  /** A metric pair "(b, d)" from two columns of a measurement or pair row. */
  private def pair(r: Row, b: String = "b", d: String = "d"): String =
    s"(${fmt(r.getAs[Double](b))}, ${fmt(r.getAs[Double](d))})"

  /** The BD measurements of the EEG × outliers cells under `cfg`. */
  private def bd(spark: SparkSession, cfg: RunConfig): DataFrame =
    Runner.measurements(spark, cfg, Set(ErrorType.Outliers), Seq(eeg))
      .filter(col("scenario") === Scenario.BD.name)

  /** A val/test table (Tables 7, 8 and 10): one measurement per row,
    * labelled by its `key` column under the heading `header`.
    */
  private def printValTest(header: String, key: String, width: Int, rows: Array[Row]): Unit = {
    def cell(s: Any) = s.toString.padTo(width, ' ')
    println(s"  ${cell(header)} val(dirty)  test(dirty) val(clean)  test(clean)")
    rows.foreach { r =>
      val metrics = Seq("val_b", "test_b", "val_d", "test_d").map(c => fmt(r.getAs[Double](c)))
      println(s"  ${cell(r.getAs[Any](key))} ${metrics.mkString("    ")}")
    }
  }

  /** Tables 6–9: one split, all models and methods, seeds = 1. */
  def tables6to9(spark: SparkSession): Unit = {
    val meas = bd(spark, RunConfig(splits = 1, seeds = 1))
    val s2Meas = meas.filter(col("detect") === S1Detect && col("repair") === S1Repair)

    println("\n===== Table 6: experiment specifications =====")
    println(s"  s1: (EEG, outliers, $S1Detect, $S1Repair, $S1Model, BD)")
    println(s"  s2: (EEG, outliers, $S1Detect, $S1Repair, BD)")
    println(s"  s3: (EEG, outliers, BD)")

    println("\n===== Table 7: s1 metric pair (paper: (0.634179, 0.668892)) =====")
    val s1 = s2Meas.filter(col("model") === S1Model).head()
    printValTest("Model", "model", 22, Array(s1))
    println(s"  Metric pair: ${pair(s1, "test_b", "test_d")}")

    println("\n===== Table 8: s2 all-model table (paper pair: (0.862706, 0.956386)) =====")
    printValTest("Model", "model", 22, s2Meas.orderBy("model").collect())
    println(s"  Metric pair: ${pair(Relations.r2Pairs(s2Meas).head())}")

    println("\n===== Table 9: s3 all-method table (paper pair: (0.937612, 0.969928)) =====")
    val r2 = Relations.r2Pairs(meas)
    println(f"  ${"Detect"}%-6s ${"Repair"}%-14s bestVal(clean)  test(bestDirty)  test(bestClean)")
    r2.orderBy("detect", "repair").collect().foreach { r =>
      println(f"  ${r.getAs[String]("detect")}%-6s ${r.getAs[String]("repair")}%-14s " +
        f"${fmt(r.getAs[Double]("best_val"))}        ${fmt(r.getAs[Double]("b"))}         " +
        f"${fmt(r.getAs[Double]("d"))}")
    }
    println(s"  Metric pair: ${pair(Relations.r3Pairs(r2).head())}")
  }

  /** Tables 10–11: five random-search seeds at searchK = 2. */
  def tables10to11(spark: SparkSession): Unit = {
    val cfg = RunConfig(splits = 1, seeds = 5, searchK = 2,
      methodFilter = Some(Set((S1Detect, S1Repair))))
    val meas = bd(spark, cfg)

    println("\n===== Table 10: 5 random-search seeds for s1 (averaged pair) =====")
    val lr = meas.filter(col("model") === S1Model)
    printValTest("seed", "seed", 5, lr.orderBy("seed").collect())
    println(s"  Aggregated (mean) pair: ${pair(Relations.r1Pairs(lr).head())}")

    println("\n===== Table 11: 5 seeds for s2 (best-validation pair) =====")
    (0 until cfg.seeds).foreach { s =>
      val best = Relations.r2Pairs(meas.filter(col("seed") === s)).head()
      println(f"  seed $s%-2d best pair: ${pair(best)}")
    }
    println(s"  Selected pair: ${pair(Relations.r2Pairs(meas).head())}")
  }

  /** Tables 12–14: `splits` splits for s1, t-tests and BY-corrected flag.
    * Returns the per-split pairs and s1's R1 row (p0..p2, p0_adj..p2_adj,
    * flag) for assertions. The paper corrects over all of R1; here BY runs
    * over the s1 slice (3 p-values) for illustration.
    */
  def tables12to14(spark: SparkSession, splits: Int = 20): (Seq[(Double, Double)], Row) = {
    val cfg = RunConfig(splits = splits, seeds = 1,
      models = Seq(S1Model), methodFilter = Some(Set((S1Detect, S1Repair))))
    val s1Pairs = Relations.r1Pairs(bd(spark, cfg))
    val pairs = s1Pairs.orderBy("split").collect()
      .map(r => (r.getAs[Double]("b"), r.getAs[Double]("d"))).toSeq

    println(s"\n===== Table 12: $splits-split metric pairs for s1 (paper: B~0.63, D~0.67) =====")
    println(f"  ${"split"}%-6s B           D")
    pairs.zipWithIndex.foreach { case ((b, d), i) =>
      println(f"  $i%-6d ${fmt(b)}    ${fmt(d)}")
    }

    val s1 = Relations.flags(s1Pairs, Relations.R1Keys, cfg.alpha).head()
    def p(c: String): Double = s1.getAs[Double](c)
    println("\n===== Table 13: raw p-values (paper: p0=3.82e-17, p1=1.91e-17, p2=1) =====")
    println(f"  two-tailed (p0):   ${p("p0")}%.3e")
    println(f"  upper-tailed (p1): ${p("p1")}%.3e")
    println(f"  lower-tailed (p2): ${p("p2")}%.3e")

    println("\n===== Table 14: BY-corrected p-values (paper flag: P) =====")
    println(f"  corrected p0: ${p("p0_adj")}%.3e  p1: ${p("p1_adj")}%.3e  p2: ${p("p2_adj")}%.3e  " +
      s"flag: ${s1.getAs[String]("flag")}")
    (pairs, s1)
  }
}
