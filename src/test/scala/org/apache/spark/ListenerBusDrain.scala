package org.apache.spark

/** Waits until every event posted so far has reached the listeners. The
  * bus is private to Spark; job counts read before it drains miss the last
  * jobs.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
