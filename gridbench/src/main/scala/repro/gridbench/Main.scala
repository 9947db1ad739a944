package repro.gridbench

import java.io.File
import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.io.Source

import org.apache.spark.ListenerBusAccess
import org.apache.spark.sql.SparkSession

/** Grid benchmark entry point.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1
  *             --work-dir DIR [--git-sha SHA]
  *
  * One process, closed loop: the session is set up `SetupReps` times (the
  * median is `setup_s`; the first, JIT-cold set-up is always the slowest),
  * then identical passes run back to back until `--seconds` have elapsed
  * (at least one). Every pass is checked and
  * digested. With `--trace 0` the end-to-end metrics are printed; with
  * `--trace 1` every pass runs under the job listener's attribution and the
  * stack sampler, and the per-layer metrics are printed. The last stdout
  * line is the result object; the line before it records the environment,
  * the checks and every pass.
  */
object Main {

  val SetupReps = 5
  val SamplePeriodMs = 50L
  /** Call sites deep enough to reach the program frame under MLlib's own. */
  val CallStackDepth = 256

  final case class Pass(wallS: Double, cpuS: Double,
                        jobs: Seq[JobRecord], startMs: Long, endMs: Long,
                        calls: Map[String, Double], sampler: Option[Sampler], digest: String)

  private def processCpuNs(): Long =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  private def peakRssMb(): Double =
    Source.fromFile("/proc/self/status").getLines()
      .find(_.startsWith("VmHWM:")).map(_.split("\\s+")(1).toDouble / 1024.0).getOrElse(Double.NaN)

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def settings(w: Workload, nproc: Int, workDir: File): Seq[(String, String)] = Seq(
    "spark.master" -> s"local[$nproc]",
    "spark.sql.shuffle.partitions" -> w.shufflePartitions(nproc).toString,
    "spark.sql.adaptive.enabled" -> "true",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1",
    "spark.local.dir" -> new File(workDir, "spark-local").getPath,
    "spark.sql.warehouse.dir" -> new File(workDir, "warehouse").getPath)

  def session(name: String, conf: Seq[(String, String)]): SparkSession =
    conf.foldLeft(SparkSession.builder().appName(s"gridbench-$name")) { case (b, (k, v)) => b.config(k, v) }
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val code =
      try run(opts)
      catch {
        case t: Throwable =>
          t.printStackTrace()
          1
      }
    System.out.flush()
    System.exit(code)
  }

  def run(opts: Map[String, String]): Int = {
    val workload = opts.get("workload").flatMap(Workloads.byName).getOrElse {
      Console.err.println(s"unknown or missing --workload: ${opts.get("workload")}")
      return 2
    }
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace = opts("trace") == "1"
    val workDir = new File(opts("work-dir")).getAbsoluteFile
    workDir.mkdirs()
    System.setProperty("spark.callstack.depth", CallStackDepth.toString)
    val nproc = Runtime.getRuntime.availableProcessors
    val conf = settings(workload, nproc, workDir)

    // Set-up: session start plus input generation, several times; the last
    // session is the one measured.
    val setupS = mutable.Buffer.empty[Double]
    val generateS = mutable.Buffer.empty[Double]
    var spark: SparkSession = null
    for (rep <- 0 until SetupReps) {
      if (spark != null) {
        spark.stop()
        SparkSession.clearActiveSession()
        SparkSession.clearDefaultSession()
      }
      val t0 = System.nanoTime()
      spark = session(workload.name, conf)
      val t1 = System.nanoTime()
      workload.setup(spark, seed, workDir)
      val t2 = System.nanoTime()
      generateS += (t2 - t1) / 1e9
      setupS += (t2 - t0) / 1e9
    }

    val listener = new JobListener
    spark.sparkContext.addSparkListener(listener)
    val passes = mutable.Buffer.empty[Pass]
    val failures = mutable.Buffer.empty[String]
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    listener.attribute = trace
    while (passes.isEmpty || elapsed < seconds) {
      ListenerBusAccess.drain(spark.sparkContext)
      listener.take()
      val sampler = if (trace) Some(new Sampler(SamplePeriodMs, Thread.currentThread.getId)) else None
      sampler.foreach(_.start())
      val calls = mutable.Map.empty[String, Double]
      val (cpu0, w0, ms0) = (processCpuNs(), System.nanoTime(), System.currentTimeMillis())
      val out = workload.pass(spark, nproc, calls)
      val (cpu1, w1, ms1) = (processCpuNs(), System.nanoTime(), System.currentTimeMillis())
      sampler.foreach(_.finish())
      ListenerBusAccess.drain(spark.sparkContext)
      val jobs = listener.take()
      val check = workload.check(spark, nproc, out)
      out.release()
      failures ++= check.failures.map(f => s"pass ${passes.size}: $f")
      passes += Pass((w1 - w0) / 1e9, (cpu1 - cpu0) / 1e9, jobs, ms0, ms1,
        calls.toMap, sampler, check.digest)
    }
    val rssMb = peakRssMb()

    val digests = passes.map(_.digest).distinct
    if (digests.size != 1) failures += s"passes disagree: digests ${digests.mkString(", ")}"
    val metrics: Seq[(String, Double, String)] =
      if (!trace) Seq(
        ("setup_s", median(setupS.toSeq), "s"),
        ("wall_s", median(passes.map(_.wallS).toSeq), "s"),
        ("spark_jobs", median(passes.map(_.jobs.size.toDouble).toSeq), "count"),
        ("cpu_s", median(passes.map(_.cpuS).toSeq), "s"),
        ("peak_rss_mb", rssMb, "MB"))
      else Report.perLayer(passes.toSeq, median(generateS.toSeq))

    val allJobs = passes.flatMap(_.jobs)
    val record = Json.obj(
      "workload" -> Json.str(workload.name),
      "env" -> Env.record(opts.getOrElse("git-sha", "unknown"), nproc, seed, workload, conf, spark),
      "setup_s" -> Json.arr(setupS.map(Json.num)),
      "generate_s" -> Json.arr(generateS.map(Json.num)),
      "passes" -> Json.arr(passes.map { p =>
        Json.obj("wall_s" -> Json.num(p.wallS),
          "cpu_s" -> Json.num(p.cpuS), "spark_jobs" -> p.jobs.size.toString,
          "failed_jobs" -> p.jobs.count(_.failed).toString, "digest" -> Json.str(p.digest),
          "calls" -> Json.obj(p.calls.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.num(v) }: _*))
      }),
      "unattributed_call_sites" -> Json.arr(allJobs.filter(j => j.callSite != null && j.rule.isEmpty)
        .map(_.callSite).distinct.take(3).map(Json.str)),
      "check_failures" -> Json.arr(failures.map(Json.str)))
    spark.stop()
    println(record)
    println(Json.obj(
      "correct" -> failures.isEmpty.toString,
      "attempted" -> math.max(1, allJobs.size).toString,
      "failed" -> allJobs.count(_.failed).toString,
      "metrics" -> Json.obj(metrics.map { case (n, v, u) =>
        n -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u))
      }: _*)))
    if (failures.nonEmpty) failures.foreach(f => Console.err.println(s"check failed: $f"))
    0
  }
}

/** Per-layer metrics of a traced run, as the mean over its passes. */
object Report {
  def perLayer(passes: Seq[Main.Pass], generateS: Double): Seq[(String, Double, String)] = {
    def mean(f: Main.Pass => Double): Double = passes.map(f).sum / passes.size
    def jobS(js: Seq[JobRecord]): Double = js.map(j => j.endMs - j.submitMs).sum / 1e3
    def jobsOf(p: Main.Pass, layer: String) = p.jobs.filter(_.rule.exists(_.layer == layer))
    def sampled(p: Main.Pass) = p.sampler.get
    val perLayer = Layers.All.flatMap { l =>
      Seq(
        (s"$l.jobs", mean(jobsOf(_, l).size.toDouble), "count"),
        (s"$l.tasks", mean(jobsOf(_, l).map(_.tasks).sum.toDouble), "count"),
        (s"$l.failed_jobs", mean(jobsOf(_, l).count(_.failed).toDouble), "count"),
        (s"$l.job_s", mean(p => jobS(jobsOf(p, l))), "s"),
        (s"$l.task_s", mean(jobsOf(_, l).map(_.taskMs).sum / 1e3), "s"),
        (s"$l.queue_s", mean(jobsOf(_, l).map(_.queueMs).sum / 1e3), "s"),
        (s"$l.driver_s", mean(sampled(_).driverNs(l) / 1e9), "s"),
        (s"$l.wait_s", mean(sampled(_).waitNs(l) / 1e9), "s"))
    }
    val perModel = Workloads.CellFitModels.flatMap { m =>
      def modelJobs(p: Main.Pass) = p.jobs.filter(_.rule.exists(_.model.contains(m)))
      Seq(
        (s"ml.models.$m.jobs", mean(modelJobs(_).size.toDouble), "count"),
        (s"ml.models.$m.job_s", mean(p => jobS(modelJobs(p))), "s"))
    }
    // Generation is timed in set-up (median of the set-ups); the other
    // top-level calls inside the passes.
    val calls = ("data.call_s", generateS, "s") +:
      Seq("core.runner", "core.relations", "core.queries").map { l =>
        (s"$l.call_s", mean(_.calls.getOrElse(l, 0.0)), "s")
      }
    val workload = Seq(
      ("trace.wall_s", mean(_.wallS), "s"),
      ("driver.gap_s", mean(p => p.wallS - covered(p)), "s"),
      ("core.runner.busy_cores", mean(p => p.jobs.map(_.taskMs).sum / 1e3 / p.wallS), "cores"),
      ("trace.unattributed_share",
        passes.map(_.jobs.count(_.rule.isEmpty)).sum.toDouble / math.max(1, passes.map(_.jobs.size).sum), "ratio"),
      ("trace.overhead_pct", 100.0 * passes.map(sampled(_).pauseNs / 1e9).sum / passes.map(_.wallS).sum, "%"),
      ("trace.layer_sum_share",
        mean(p => (jobS(p.jobs.filter(_.rule.isDefined)) + sampled(p).driverNs.values.sum / 1e9) / p.wallS), "ratio"))
    perLayer ++ perModel ++ calls ++ workload
  }

  /** Seconds of the pass covered by at least one job. */
  def covered(p: Main.Pass): Double = {
    val iv = p.jobs.map(j => (math.max(j.submitMs, p.startMs), math.min(j.endMs, p.endMs)))
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L
    var (curA, curB) = (-1L, -1L)
    for ((a, b) <- iv) {
      if (a > curB) { total += curB - curA; curA = a; curB = b }
      else curB = math.max(curB, b)
    }
    total += curB - curA
    total / 1e3
  }
}
