package repro.eval

import org.apache.spark.sql.SparkSession
import repro.engine.{EngineFactory, GraphStore, WalkEngine}
import repro.graph.{GraphGen, Update, UpdateGen, UpdateMode}
import repro.walk.Walks

/** The paper's evaluation workflow (§6.1): per round, (i) apply BATCHSIZE
  * graph updates, (ii) run the random-walk application; repeat for all
  * rounds and report the total time plus the engine's retained memory.
  *
  * Parallelisation mirrors the GPU design through Spark: a round is one
  * Spark job with one task per vertex slice (`v % P`, the 1-D partitioning
  * of supplement §9.1). The driver splits the round into P slices of
  * primitive columns ([[sliceRound]]) and ships them as the P partitions of
  * an RDD, so each task receives only its own vertices' updates; it applies
  * them and then runs its slice of the engine's per-round rebuild. Walks
  * fan out as an RDD range of walker ids ([[Walks.countPerTask]]).
  *
  * **Timing.** Reported times are the per-round critical path measured
  * *inside* the tasks (max task time per round, summed over rounds) — the
  * analogue of GPU kernel time in the paper. Spark's fixed job-launch
  * overhead (~tens of ms per round, identical for every system and ~100×
  * the total algorithmic cost of a 1000-update batch at -lite scale) would
  * otherwise drown the systems' algorithmic differences.
  */
object Bench {

  /** Scaled-down defaults (paper: BATCHSIZE=100K, walkers=|V|). Override via
    * REPRO_BENCH_* environment variables.
    */
  final case class Params(
      batchSize: Int = envInt("REPRO_BENCH_BATCH", 1000),
      rounds: Int = envInt("REPRO_BENCH_ROUNDS", 10),
      walkers: Int = envInt("REPRO_BENCH_WALKERS", 2048),
      walkLength: Int = envInt("REPRO_BENCH_WALKLEN", 80),
      seed: Long = 7L,
  )

  private def envInt(k: String, dflt: Int): Int = sys.env.get(k).map(_.toInt).getOrElse(dflt)

  final case class Result(
      dataset: String,
      app: String,
      mode: String,
      framework: String,
      updateSec: Double,
      walkSec: Double,
      memMB: Double,
      steps: Long,
  ) {
    def totalSec: Double = updateSec + walkSec
  }

  /** One task's share of an update round: the updates of the vertices
    * `v % stride == slice`, as primitive columns grouped by `src`, in `ts`
    * order within each `src`.
    */
  final case class RoundSlice(
      slice: Int,
      src: Array[Int],
      ts: Array[Long],
      insert: Array[Boolean],
      dst: Array[Int],
      bias: Array[Double],
  ) {

    /** Calls `f(src, updates)` once per vertex of the slice, updates in `ts` order. */
    def foreachVertex(f: (Int, Seq[Update]) => Unit): Unit = {
      var i = 0
      while (i < src.length) {
        val us = Vector.newBuilder[Update]
        var j = i
        while (j < src.length && src(j) == src(i)) {
          us += Update(ts(j), insert(j), src(j), dst(j), bias(j))
          j += 1
        }
        f(src(i), us.result())
        i = j
      }
    }
  }

  /** Split a round into `p` slices, slice `s` holding the updates with
    * `src % p == s`, grouped by ascending `src` and in `ts` order within
    * each `src` (updates with equal `ts` keep their round order, as in
    * [[WalkEngine.applyRoundLocal]]). Every slice is emitted, empty ones
    * too, so every task runs its [[WalkEngine.postRoundSlice]].
    *
    * @throws IllegalArgumentException if an update's `src` lies outside `[0, numVertices)`
    */
  def sliceRound(round: Seq[Update], p: Int, numVertices: Int): Array[RoundSlice] = {
    require(p >= 1, s"need at least one slice: $p")
    val byTs = round.sortBy(_.ts)
    // stable counting sort by src: `next(v)` first counts v's updates, then
    // holds the position of v's next update in its slice
    val next = new Array[Int](numVertices)
    byTs.foreach { u =>
      require(u.src >= 0 && u.src < numVertices, s"update source outside [0, $numVertices): $u")
      next(u.src) += 1
    }
    val sizes = new Array[Int](p)
    var v = 0
    while (v < numVertices) {
      val n = next(v)
      next(v) = sizes(v % p)
      sizes(v % p) += n
      v += 1
    }
    val slices = Array.tabulate(p) { s =>
      val n = sizes(s)
      RoundSlice(s, new Array[Int](n), new Array[Long](n), new Array[Boolean](n), new Array[Int](n), new Array[Double](n))
    }
    byTs.foreach { u =>
      val s = slices(u.src % p)
      val i = next(u.src)
      s.src(i) = u.src; s.ts(i) = u.ts; s.insert(i) = u.insert; s.dst(i) = u.dst; s.bias(i) = u.bias
      next(u.src) = i + 1
    }
    slices
  }

  /** Apply one update round as a single Spark job: one RDD partition, and so
    * one task, per slice; each task deserializes only its own slice.
    *
    * @return critical-path seconds: the slowest task's in-task time
    * @throws IllegalArgumentException if an update's `src` is not a vertex of
    *         the engine; the round is then not applied at all
    */
  def applyRoundSpark(spark: SparkSession, handle: String, round: Seq[Update]): Double = {
    val sc = spark.sparkContext
    val p = math.max(1, sc.defaultParallelism)
    val slices = sliceRound(round, p, GraphStore.get(handle).numVertices)
    val taskNanos = sc
      .parallelize(slices.toSeq, p)
      .map { s =>
        val eng = GraphStore.get(handle)
        val t0 = System.nanoTime()
        s.foreachVertex(eng.applyVertexUpdates)
        eng.postRoundSlice(s.slice, p)
        System.nanoTime() - t0
      }
      .collect()
    taskNanos.max / 1e9
  }

  /** Run the walk phase, returning (steps sampled, critical-path seconds). */
  def runWalksSpark(
      spark: SparkSession,
      handle: String,
      app: Walks.WalkApp,
      walkers: Int,
      seed: Long,
  ): (Long, Double) = {
    val perTask = Walks.countPerTask(spark.sparkContext, handle, app, walkers, seed)
    (perTask.map(_._1).sum, perTask.map(_._2).max / 1e9)
  }

  /** Run one cell of Table 3: a (dataset, app, mode, framework) config. */
  def runConfig(
      spark: SparkSession,
      graph: GraphGen.GeneratedGraph,
      app: Walks.WalkApp,
      mode: UpdateMode,
      factory: EngineFactory,
      params: Params = Params(),
  ): Result = {
    val plan = UpdateGen.plan(graph.edges, mode, params.batchSize, params.rounds, params.seed)
    val engine: WalkEngine = factory.build(graph.numVertices, plan.initialEdges)
    val handle = s"bench-${graph.spec.abbr}-${app.label}-${mode.label}-${factory.name}"
    GraphStore.register(handle, engine)
    try {
      var updSec = 0.0
      var walkSec = 0.0
      var steps = 0L
      plan.rounds.zipWithIndex.foreach { case (round, r) =>
        updSec += applyRoundSpark(spark, handle, round)
        val (s, w) = runWalksSpark(spark, handle, app, params.walkers, params.seed + r)
        steps += s
        walkSec += w
      }
      Result(
        graph.spec.abbr,
        app.label,
        mode.label,
        factory.name,
        updSec,
        walkSec,
        engine.memoryBytes / 1e6,
        steps,
      )
    } finally GraphStore.remove(handle)
  }
}
