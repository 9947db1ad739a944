package repro

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Shuffle partitions are pinned to 2, the value the measurement
  * grid runs at (per-cell frames are tiny), so results do not depend on
  * which suite ran first. Broadcast joins are disabled, as in the `jobs`
  * and `gridbench` sessions.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** The Spark jobs `body` issues from this thread and the threads it
    * starts, counted through a job group. The listener bus is drained
    * before the count is read; otherwise it misses the last jobs.
    */
  def jobsOf(body: => Any): Int = {
    val sc = spark.sparkContext
    val group = s"${getClass.getSimpleName}-job-count"
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group))
          jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    sc.setJobGroup(group, "job count")
    try body
    finally {
      sc.clearJobGroup()
      ListenerBusDrain.drain(sc)
      sc.removeSparkListener(listener)
    }
    jobs.get
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions", 2)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
