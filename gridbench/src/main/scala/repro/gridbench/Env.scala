package repro.gridbench

import org.apache.spark.sql.SparkSession

/** The environment recorded with every result. */
object Env {
  def record(gitSha: String, nproc: Int, seed: Long, w: Workload,
             pinned: Seq[(String, String)], spark: SparkSession): String = Json.obj(
    "git_sha" -> Json.str(gitSha),
    "nproc" -> nproc.toString,
    "SPARK_GRAFT_CPUS" -> Json.str(sys.env.getOrElse("SPARK_GRAFT_CPUS", "")),
    "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString,
    "spark_version" -> Json.str(spark.version),
    "jvm_version" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
    "run_config" -> Json.str(w.config(nproc).toString),
    "workload_seed" -> seed.toString,
    "spark.callstack.depth" -> Json.str(System.getProperty("spark.callstack.depth")),
    "session_pinned" -> Json.obj(pinned.map { case (k, v) => k -> Json.str(v) }: _*),
    "session_at_end" -> Json.obj(pinned.map(_._1).filter(_.startsWith("spark.sql.")).map { k =>
      k -> Json.str(spark.conf.getOption(k).getOrElse(""))
    }: _*))
}
