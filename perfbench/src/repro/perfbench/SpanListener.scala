package repro.perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable.ArrayBuffer

/** Spark job and task spans of a traced run, kept in memory.
  *
  * The benchmark tags each phase's jobs with the local property [[SpanProp]]
  * (`"<round>/update"` or `"<round>/walk"`); tasks are tied to their job
  * through the job's stage ids. Times are epoch milliseconds, as Spark
  * reports them; task run/CPU times come from the task metrics.
  */
final class SpanListener extends SparkListener {
  import SpanListener._

  private val jobs = ArrayBuffer[JobSpan]()
  private val tasks = ArrayBuffer[TaskSpan]()
  private val jobOfStage = scala.collection.mutable.Map[Int, Int]()
  private val jobById = scala.collection.mutable.Map[Int, JobSpan]()
  @volatile private var marker: (String, CountDownLatch) = ("", new CountDownLatch(0))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(SpanProp))).getOrElse("")
    val j = JobSpan(e.jobId, tag, e.time, -1L)
    jobById(e.jobId) = j
    e.stageIds.foreach(s => jobOfStage(s) = e.jobId)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val tag = synchronized {
      jobById.remove(e.jobId).map { j => jobs += j.copy(endMs = e.time); j.tag }.getOrElse("")
    }
    val (want, latch) = marker
    if (tag == want) latch.countDown()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    val info = e.taskInfo
    tasks += TaskSpan(
      jobOfStage.getOrElse(e.stageId, -1),
      info.taskId,
      info.launchTime,
      info.finishTime,
      if (m == null) 0L else m.executorRunTime,
      if (m == null) 0L else m.executorCpuTime,
      if (m == null) 0L else m.executorDeserializeTime,
    )
  }

  /** Run a one-task marker job and wait until its end event arrives. Events
    * reach a listener in order, so every earlier job and task is recorded
    * once this returns.
    */
  def drain(sc: SparkContext): Unit = {
    val tag = s"drain-${System.nanoTime()}"
    val latch = new CountDownLatch(1)
    marker = (tag, latch)
    sc.setLocalProperty(SpanProp, tag)
    sc.parallelize(Seq(1), 1).count()
    sc.setLocalProperty(SpanProp, null)
    require(latch.await(60, TimeUnit.SECONDS), "Spark listener events did not drain within 60 s")
  }

  def jobSpans: Seq[JobSpan] = synchronized(jobs.toList)
  def taskSpans: Seq[TaskSpan] = synchronized(tasks.toList)
}

object SpanListener {
  val SpanProp = "perfbench.span"

  final case class JobSpan(jobId: Int, tag: String, startMs: Long, endMs: Long)

  final case class TaskSpan(
      jobId: Int,
      taskId: Long,
      launchMs: Long,
      finishMs: Long,
      runMs: Long,
      cpuNs: Long,
      deserializeMs: Long,
  )

  /** Milliseconds covered by the union of the tasks' [launch, finish] intervals. */
  def coverMs(ts: Seq[TaskSpan]): Long = {
    var cover = 0L
    var end = Long.MinValue
    ts.sortBy(_.launchMs).foreach { t =>
      val s = math.max(t.launchMs, end)
      if (t.finishMs > s) cover += t.finishMs - s
      end = math.max(end, t.finishMs)
    }
    cover
  }
}
