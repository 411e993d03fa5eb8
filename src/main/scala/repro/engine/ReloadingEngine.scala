package repro.engine

import java.util.SplittableRandom
import repro.core.{AliasTable, ItsSampler, ReservoirSampler}
import repro.graph.{Edge, Update}

/** The static-graph baselines of paper §6.2 — KnightKing [73], gSampler [15]
  * and FlowWalker [39] — on a dynamic graph. None of them supports updates,
  * so, as the paper did ("we reload or reconstruct the corresponding
  * structure after each round of updates"), updates go to a harness-side
  * edge list `adj` (the "new graph", like the paper's host-side update
  * stream, not charged to any system), and every round ends by reloading it:
  * each vertex's neighbour list and dst-lookup map is deep-copied into the
  * engine-resident `loaded` graph and its per-vertex sampler is rebuilt
  * from scratch — O(E) per round regardless of batch size. Walks sample
  * `loaded` only.
  *
  * The baselines differ only in their [[ReloadingEngine.Sampler]].
  */
final class ReloadingEngine[S <: AnyRef] private (
    val name: String,
    val numVertices: Int,
    sampler: ReloadingEngine.Sampler[S],
) extends WalkEngine {
  private val adj = new Adjacency(numVertices)
  private val loaded = new Array[Adjacency#VertexAdj](numVertices)
  private val samplers = new Array[AnyRef](numVertices)

  private def samplerOf(v: Int): S = samplers(v).asInstanceOf[S]

  private def requireBias(b: Double): Unit = require(b > 0.0 && !b.isInfinite, s"bias must be positive and finite: $b")

  def outDegree(v: Int): Int = adj.outDegree(v)
  def hasEdge(u: Int, v: Int): Boolean = adj.hasEdge(u, v)

  /** Checks the whole slice, then applies it; a bad slice leaves `adj` untouched. */
  def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = {
    require(src >= 0 && src < numVertices, s"src $src outside [0, $numVertices)")
    updates.foreach(u => if (u.insert) requireBias(u.bias))
    val a = adj.vertices(src)
    updates.foreach(u => if (u.insert) a.insert(u.dst, u.bias) else a.delete(u.dst))
  }

  /** The per-round reload: re-ingest the graph and rebuild every sampler. */
  def postRoundSlice(slice: Int, stride: Int): Unit = {
    var v = slice
    while (v < numVertices) {
      val a = adj.vertices(v).deepCopy
      loaded(v) = a
      samplers(v) = if (a.len == 0) null else sampler.build(a)
      v += stride
    }
  }

  def sampleNext(u: Int, rng: SplittableRandom): Int = {
    val a = loaded(u)
    if (a.len == 0) -1 else a.dst(sampler.draw(samplerOf(u), a, rng))
  }

  /** Engine-resident state only: the reloaded graph plus the samplers. */
  def memoryBytes: Long = {
    var s = 0L
    var v = 0
    while (v < numVertices) {
      val a = loaded(v)
      s += a.memoryBytes
      if (a.len > 0) s += sampler.memoryBytes(samplerOf(v))
      v += 1
    }
    s
  }

  def exactDistribution(u: Int): Map[Int, Double] = {
    val a = loaded(u)
    if (a.len == 0) Map.empty
    else {
      val p = sampler.probabilities(samplerOf(u), a)
      val m = scala.collection.mutable.Map[Int, Double]().withDefaultValue(0.0)
      var i = 0
      while (i < a.len) { m(a.dst(i)) += p(i); i += 1 }
      m.toMap
    }
  }
}

object ReloadingEngine {

  /** A baseline's per-vertex sampler over a reloaded, non-empty neighbour
    * list `a`: how to build it, draw a slot of `a` with it, read the exact
    * probability of every slot from it, and charge its memory.
    */
  trait Sampler[S <: AnyRef] extends Serializable {
    def build(a: Adjacency#VertexAdj): S
    def draw(s: S, a: Adjacency#VertexAdj, rng: SplittableRandom): Int
    def probabilities(s: S, a: Adjacency#VertexAdj): Array[Double]
    def memoryBytes(s: S): Long
  }

  /** KnightKing: per-vertex alias tables, O(1) sampling and O(d) rebuild.
    * node2vec uses its static-sample + rejection scheme, app-side in
    * [[repro.walk.Walks]].
    */
  object Alias extends Sampler[AliasTable] {
    def build(a: Adjacency#VertexAdj): AliasTable = AliasTable(java.util.Arrays.copyOfRange(a.bias, 0, a.len))
    def draw(t: AliasTable, a: Adjacency#VertexAdj, rng: SplittableRandom): Int = t.sample(rng)
    def probabilities(t: AliasTable, a: Adjacency#VertexAdj): Array[Double] = t.probabilities
    def memoryBytes(t: AliasTable): Long = t.memoryBytes
  }

  /** gSampler: per-vertex CDFs sampled by inverse transform (binary search,
    * O(log d)) — the bulk "matrix" flavour of its per-step operators. It is
    * charged for the CDF plus the matrix-API workspace the paper calls out
    * as its dominant memory cost (the most memory-hungry system in Table 3).
    */
  object Cdf extends Sampler[ItsSampler] {
    private val MatrixWorkspaceFactor = 2.0
    def build(a: Adjacency#VertexAdj): ItsSampler = ItsSampler(a.bias, a.len)
    def draw(s: ItsSampler, a: Adjacency#VertexAdj, rng: SplittableRandom): Int = s.sample(rng)
    def probabilities(s: ItsSampler, a: Adjacency#VertexAdj): Array[Double] = Array.tabulate(s.size)(s.probabilityOf)
    def memoryBytes(s: ItsSampler): Long = { val cdf = s.size * 8L; cdf + (cdf * MatrixWorkspaceFactor).toLong }
  }

  /** FlowWalker: no per-vertex structure at all — its defining property —
    * so every step is an O(d) weighted reservoir pass over the neighbour list.
    */
  object Reservoir extends Sampler[Null] {
    def build(a: Adjacency#VertexAdj): Null = null
    def draw(s: Null, a: Adjacency#VertexAdj, rng: SplittableRandom): Int = ReservoirSampler.sample(a.bias, 0, a.len, rng)
    def probabilities(s: Null, a: Adjacency#VertexAdj): Array[Double] = {
      val tot = a.totalBias
      Array.tabulate(a.len)(a.bias(_) / tot)
    }
    def memoryBytes(s: Null): Long = 0L
  }

  private def factory[S <: AnyRef](engineName: String, sampler: Sampler[S]): EngineFactory = new EngineFactory {
    def name: String = engineName
    def build(numVertices: Int, initial: Seq[Edge]): WalkEngine = {
      val e = new ReloadingEngine(engineName, numVertices, sampler)
      initial.foreach { x => e.requireBias(x.bias); e.adj.insert(x.src, x.dst, x.bias) }
      e.postRoundSlice(0, 1)
      e
    }
  }

  val KnightKing: EngineFactory = factory("KnightKing", Alias)
  val GSampler: EngineFactory = factory("gSampler", Cdf)
  val FlowWalker: EngineFactory = factory("FlowWalker", Reservoir)
}
