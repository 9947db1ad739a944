package repro.gridbench

import java.lang.management.ManagementFactory

import scala.collection.mutable

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** One Spark job as the listener saw it. Times are epoch milliseconds. */
final case class JobRecord(
    id: Int, submitMs: Long, endMs: Long, failed: Boolean,
    rule: Option[Layers.Rule], callSite: String, tasks: Int, taskMs: Long, firstLaunchMs: Long) {
  def queueMs: Long = if (firstLaunchMs > 0) math.max(0L, firstLaunchMs - submitMs) else 0L
}

/** Records every job of the session. While `attribute` is set it also maps each
  * job to a layer: by the innermost `repro.` frame of the job's call site,
  * or, for jobs submitted from Spark's own threads (AQE shuffle stages carry
  * no program frame), by the call site of the SQL execution the job belongs
  * to, found through the `spark.sql.execution.id` job property.
  */
final class JobListener extends SparkListener {
  @volatile var attribute = false

  private final class Open(val id: Int, val submitMs: Long, val rule: Option[Layers.Rule],
                           val callSite: String) {
    var tasks = 0
    var taskMs = 0L
    var firstLaunchMs = 0L
  }

  private val open = mutable.Map.empty[Int, Open]
  private val done = mutable.ArrayBuffer.empty[JobRecord]
  private val stageJob = mutable.Map.empty[Int, Int]
  private val execRule = mutable.Map.empty[Long, Option[Layers.Rule]]

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart if attribute => synchronized {
      val own = Layers.ofCallSite(e.details)
      execRule(e.executionId) =
        own.orElse(e.rootExecutionId.flatMap(execRule.get).flatten)
    }
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    // The stage created last is the job's own final stage; its details are
    // the job's call site. Parent stages may be reused from an earlier job
    // and carry that job's call site.
    val callSite =
      if (!attribute) null else e.stageInfos.sortBy(_.stageId).lastOption.map(_.details).orNull
    val rule =
      if (!attribute) None
      else Layers.ofCallSite(callSite).orElse {
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
          .flatMap(id => execRule.get(id.toLong)).flatten
      }
    open(e.jobId) = new Open(e.jobId, e.time, rule, callSite)
    if (attribute) e.stageIds.foreach(stageJob(_) = e.jobId)
  }

  override def onTaskStart(e: SparkListenerTaskStart): Unit = if (attribute) synchronized {
    for (j <- stageJob.get(e.stageId); o <- open.get(j) if o.firstLaunchMs == 0L)
      o.firstLaunchMs = e.taskInfo.launchTime
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = if (attribute) synchronized {
    for (j <- stageJob.get(e.stageId); o <- open.get(j)) {
      o.tasks += 1
      if (e.taskMetrics != null) o.taskMs += e.taskMetrics.executorRunTime
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    open.remove(e.jobId).foreach { o =>
      done += JobRecord(o.id, o.submitMs, e.time, e.jobResult != JobSucceeded,
        o.rule, o.callSite, o.tasks, o.taskMs, o.firstLaunchMs)
    }
  }

  /** Jobs finished since the last call; the caller drains the bus first. */
  def take(): Seq[JobRecord] = synchronized {
    val out = done.toList
    done.clear()
    out
  }
}

/** Samples the grid's driver threads: the thread that calls into the
  * program and Runner's worker pool. Every `periodMs` it reads their stacks
  * and credits the measured interval since the previous sample to the layer
  * of each thread's innermost `repro.` frame, as driver compute when the
  * thread is RUNNABLE and as waiting otherwise (parked on a Spark job, a
  * lock or the pool). Threads with no program frame are idle and skipped,
  * as are the few samples whose program frame matches no rule.
  * Spark's executor task threads are not sampled: their time is the
  * listener's task time.
  */
final class Sampler(periodMs: Long, callerThreadId: Long) extends Thread("gridbench-sampler") {
  setDaemon(true)

  private val mx = ManagementFactory.getThreadMXBean
  private val PoolThread = """pool-\d+-thread-\d+""".r
  @volatile private var running = true

  val driverNs: mutable.Map[String, Long] = mutable.Map.empty.withDefaultValue(0L)
  val waitNs: mutable.Map[String, Long] = mutable.Map.empty.withDefaultValue(0L)
  /** Time spent reading stacks. Reading a stack stops the thread it reads,
    * so this is the delay the sampler adds to the sampled threads.
    */
  var pauseNs = 0L

  /** The calling thread and Runner's pool threads. Enumerating the thread
    * group is cheap; only the stacks read below stop the threads.
    */
  private def gridThreads(): Array[Long] = {
    val group = Thread.currentThread.getThreadGroup
    val threads = new Array[Thread](group.activeCount() * 2 + 16)
    threads.take(group.enumerate(threads))
      .collect { case t if t.getId == callerThreadId || PoolThread.matches(t.getName) => t.getId }
  }

  override def run(): Unit = {
    var last = System.nanoTime()
    try {
      while (running) {
        Thread.sleep(periodMs)
        val now = System.nanoTime()
        val w = now - last
        last = now
        val ids = gridThreads()
        val t0 = System.nanoTime()
        val infos = mx.getThreadInfo(ids, Int.MaxValue)
        pauseNs += System.nanoTime() - t0
        for (t <- infos if t != null; r <- Layers.ofStack(t.getStackTrace)) {
          if (t.getThreadState == Thread.State.RUNNABLE) driverNs(r.layer) += w
          else waitNs(r.layer) += w
        }
      }
    } catch { case _: InterruptedException => }
  }

  /** Stop sampling and wait for the sampler thread to end. */
  def finish(): Unit = {
    running = false
    interrupt()
    join()
  }
}
