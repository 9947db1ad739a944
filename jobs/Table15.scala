package repro.jobs

import repro.core.{ErrorType, Runner, RunConfig}

/** Reproduces paper Table 15: the Q1–Q5 flag-distribution blocks for one
  * error type (or all five), over relations R1/R2/R3.
  *
  * Usage: Table15 [missing_values|outliers|duplicates|inconsistencies|mislabels|all]
  * Scale via CLEANML_SPLITS / CLEANML_SEEDS / CLEANML_SEARCH_K /
  * CLEANML_PARALLELISM (paper protocol: SPLITS=20, SEEDS=5).
  */
object Table15 {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("cleanml-table15")
    val errors =
      if (args.isEmpty || args(0) == "all") ErrorType.all
      else Seq(ErrorType.of(args(0)))
    val cfg = RunConfig.fromEnv
    println(s"[Table15] config: $cfg")
    errors.foreach { e =>
      val rel = Runner.run(spark, cfg, Set(e))
      Runner.printTable15(rel, e)
    }
    spark.stop()
  }
}
