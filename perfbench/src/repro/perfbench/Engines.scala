package repro.perfbench

import java.util.SplittableRandom
import java.util.concurrent.atomic.{AtomicBoolean, LongAdder}
import repro.engine.WalkEngine
import repro.graph.Update

/** A [[WalkEngine]] that forwards every call to `inner`. */
abstract class ForwardingEngine(val inner: WalkEngine) extends WalkEngine {
  def name: String = inner.name
  def numVertices: Int = inner.numVertices
  def outDegree(v: Int): Int = inner.outDegree(v)
  def hasEdge(u: Int, v: Int): Boolean = inner.hasEdge(u, v)
  def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = inner.applyVertexUpdates(src, updates)
  def postRoundSlice(slice: Int, stride: Int): Unit = inner.postRoundSlice(slice, stride)
  def sampleNext(u: Int, rng: SplittableRandom): Int = inner.sampleNext(u, rng)
  def memoryBytes: Long = inner.memoryBytes
  def exactDistribution(u: Int): Map[Int, Double] = inner.exactDistribution(u)
}

/** Counts and times every call the harness makes into the engine (traced
  * runs only). Counters are thread-safe; tasks of one round run in parallel.
  */
final class TracingEngine(inner: WalkEngine) extends ForwardingEngine(inner) {
  import TracingEngine._
  private val c = Array.fill(NumCounters)(new LongAdder)

  override def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = {
    val t0 = System.nanoTime()
    inner.applyVertexUpdates(src, updates)
    c(ApplyNanos).add(System.nanoTime() - t0)
    c(ApplyCalls).increment()
    c(ApplyUpdates).add(updates.length)
  }

  override def postRoundSlice(slice: Int, stride: Int): Unit = {
    val t0 = System.nanoTime()
    inner.postRoundSlice(slice, stride)
    c(PostRoundNanos).add(System.nanoTime() - t0)
  }

  override def sampleNext(u: Int, rng: SplittableRandom): Int = {
    val t0 = System.nanoTime()
    val r = inner.sampleNext(u, rng)
    c(SampleNanos).add(System.nanoTime() - t0)
    c(SampleCalls).increment()
    if (r < 0) c(DeadEnds).increment()
    r
  }

  override def hasEdge(u: Int, v: Int): Boolean = {
    val t0 = System.nanoTime()
    val r = inner.hasEdge(u, v)
    c(HasEdgeNanos).add(System.nanoTime() - t0)
    c(HasEdgeCalls).increment()
    r
  }

  /** Current totals, indexed by the counter constants below. */
  def snapshot: Array[Long] = c.map(_.sum())
}

object TracingEngine {
  final val ApplyCalls = 0
  final val ApplyUpdates = 1
  final val ApplyNanos = 2
  final val PostRoundNanos = 3
  final val SampleCalls = 4
  final val SampleNanos = 5
  final val DeadEnds = 6
  final val HasEdgeCalls = 7
  final val HasEdgeNanos = 8
  final val NumCounters = 9
  val Names: Seq[String] = Seq(
    "apply_calls", "apply_updates", "apply_ns", "post_round_ns", "sample_next_calls",
    "sample_next_ns", "dead_ends", "has_edge_calls", "has_edge_ns",
  )
}

/** Drops exactly one delete update, the first one it is handed. Used by the
  * benchmark's tests to show that the output check catches a lost update.
  */
final class LossyEngine(inner: WalkEngine) extends ForwardingEngine(inner) {
  private val dropped = new AtomicBoolean(false)
  override def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = {
    val i = updates.indexWhere(!_.insert)
    if (i >= 0 && dropped.compareAndSet(false, true)) inner.applyVertexUpdates(src, updates.patch(i, Nil, 1))
    else inner.applyVertexUpdates(src, updates)
  }
}

/** Remembers the result of the last `sampleNext` (single-threaded replay). */
final class RecordingEngine(inner: WalkEngine) extends ForwardingEngine(inner) {
  var lastSample: Int = 0
  override def sampleNext(u: Int, rng: SplittableRandom): Int = {
    lastSample = inner.sampleNext(u, rng)
    lastSample
  }
}
