package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a block submits, with a `SparkListener` attached for
  * the block's duration. Listener events arrive asynchronously, so the bus is
  * drained before the listener is attached and again before it is read.
  */
object SparkJobs {
  def count[T](spark: SparkSession)(body: => T): (T, Int) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    try {
      val out = body
      ListenerBusAccess.drain(sc)
      (out, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
