package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared SparkSession builder for the job entrypoints (spark-submit or
  * `sbt "jobs/runMain ..."`). Shuffle partitions are pinned to 2: the
  * measurement grid's per-cell frames are tiny, and low shuffle parallelism
  * is much faster on them.
  */
object JobSession {
  def build(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", 2)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
}
