package org.apache.spark

/** Reaches Spark's listener bus, which is private to the `org.apache.spark`
  * package, so a test can wait until every event has been delivered.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
