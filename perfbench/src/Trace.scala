package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.{SparkAccess, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Spark work charged to one job group (one span). */
final class SparkCounts {
  var jobs: Long = 0L
  var stages: Long = 0L
  var tasks: Long = 0L
  var taskMs: Long = 0L
  var shuffleWriteBytes: Long = 0L
  /** executed stages that re-ran an uncached RDD an earlier stage already computed */
  var recomputedStages: Long = 0L
}

/** Counts jobs, stages, tasks, task busy time and shuffle bytes per job group.
  * Events arrive on Spark's listener thread; read the counts only after
  * `SparkAccess.drain`.
  */
final class GroupListener extends SparkListener {
  private val stageGroup = mutable.Map[Int, String]()
  private val computedRdds = mutable.Set[Int]()
  val byGroup = mutable.Map[String, SparkCounts]()

  private def counts(g: String): SparkCounts = byGroup.getOrElseUpdate(g, new SparkCounts)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse(Tracer.Untraced)
    e.stageIds.foreach(s => stageGroup(s) = g)
    counts(g).jobs += 1
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val c = counts(stageGroup.getOrElse(e.stageInfo.stageId, Tracer.Untraced))
    c.stages += 1
    val uncached = e.stageInfo.rddInfos.filterNot(_.storageLevel.isValid).map(_.id)
    if (uncached.exists(computedRdds.contains)) c.recomputedStages += 1
    computedRdds ++= uncached
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = counts(stageGroup.getOrElse(e.stageId, Tracer.Untraced))
    c.tasks += 1
    Option(e.taskMetrics).foreach { m =>
      c.taskMs += m.executorRunTime
      c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def get(g: String): SparkCounts = synchronized(byGroup.getOrElse(g, new SparkCounts))
}

/** One timed call into a layer. `group` is the Spark job group its jobs carry. */
final class Span(val id: Int, val name: String, val parent: Option[Span]) {
  val group: String = s"perfbench-$id-$name"
  var ms: Double = 0.0
  var gcMs: Long = 0L
  var spark: SparkCounts = new SparkCounts
}

/** Wraps a call in a named span. The untraced composition uses `NoSpans`. */
trait Spans {
  def apply[A](name: String)(body: => A): A
}

object NoSpans extends Spans {
  def apply[A](name: String)(body: => A): A = body
}

/** Benchmark-side tracer: nested spans, each with wall ms, JVM GC ms and the
  * Spark work of the jobs submitted while it was the innermost span. Spans
  * stay in memory until `finish`.
  */
final class Tracer(sc: SparkContext, listener: GroupListener) extends Spans {
  private var stack: List[Span] = Nil
  val spans = mutable.ArrayBuffer[Span]()

  def apply[A](name: String)(body: => A): A = {
    val s = new Span(spans.length, name, stack.headOption)
    spans += s
    stack = s :: stack
    sc.setJobGroup(s.group, name)
    val gc0 = Tracer.gcMillis()
    val t0 = System.nanoTime()
    try body
    finally {
      s.ms = (System.nanoTime() - t0) / 1e6
      s.gcMs = Tracer.gcMillis() - gc0
      stack = stack.tail
      stack.headOption match {
        case Some(p) => sc.setJobGroup(p.group, p.name)
        case None    => sc.clearJobGroup()
      }
    }
  }

  /** Waits for Spark's listener queue, then attaches the counts to spans. */
  def finish(): Unit = {
    SparkAccess.drain(sc)
    spans.foreach(s => s.spark = listener.get(s.group))
  }

  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  /** Spans as JSON lines: id, parent, name, ms, gc and Spark counts. */
  def toJson: String = spans.map { s =>
    val c = s.spark
    s"""{"id":${s.id},"parent":${s.parent.map(_.id).getOrElse(-1)},"name":"${s.name}",""" +
      f""""ms":${s.ms}%.3f,"gc_ms":${s.gcMs},"jobs":${c.jobs},"stages":${c.stages},""" +
      s""""tasks":${c.tasks},"task_ms":${c.taskMs},"shuffle_write_bytes":${c.shuffleWriteBytes},""" +
      s""""recomputed_stages":${c.recomputedStages}}"""
  }.mkString("\n")
}

object Tracer {
  val Untraced = "(untraced)"

  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
}
