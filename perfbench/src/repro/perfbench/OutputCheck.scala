package repro.perfbench

import java.util.SplittableRandom
import repro.engine.WalkEngine
import repro.walk.Walks

/** Untimed check of the engine's final state and of its walks against the
  * ground truth of the update plan.
  *
  *  - Every vertex: `outDegree` and `exactDistribution` (the probabilities
  *    derived from the live sampling structures) must equal the degree and
  *    the normalised biases of the expected edge multiset. Each update that
  *    targeted a vertex that fails counts as a failed update (a failing
  *    vertex that no update touched counts once).
  *  - A seeded sample of the last round's walkers is replayed with
  *    `Walks.walkPath` on the final state: every hop must be a live edge,
  *    and a walk may stop early only at a vertex whose true out-degree is 0.
  *    An early stop that the engine did not report as a dead end is a
  *    truncated walk.
  */
object OutputCheck {

  final case class Result(
      updates: Long,
      updatesFailed: Long,
      walks: Int,
      walksFailed: Int,
      truncated: Int,
      problems: Seq[String],
  ) {
    def attempted: Long = updates + walks
    def failed: Long = updatesFailed + walksFailed
  }

  private val Tolerance = 1e-9
  private val MaxReported = 5

  /** @param truth            expected edge multiset: (src, dst, bias) → count
    * @param updatesPerVertex updates applied to each source vertex
    * @param walkSeed         the walk seed of the last round
    */
  def run(
      engine: WalkEngine,
      truth: Map[(Int, Int, Double), Int],
      updatesPerVertex: Array[Long],
      app: Walks.WalkApp,
      walkers: Int,
      walkSeed: Long,
      sampleWalkers: Int,
      sampleSeed: Long,
      threads: Int,
  ): Result = {
    val n = engine.numVertices
    val degree = new Array[Int](n)
    val weight = Array.fill(n)(Map.empty[Int, Double])
    truth.groupBy(_._1._1).foreach { case (src, es) =>
      degree(src) = es.valuesIterator.sum
      weight(src) = es.toSeq.groupMapReduce(_._1._2) { case ((_, _, b), c) => b * c }(_ + _)
    }

    // per-vertex state, in parallel (read-only on the engine)
    val bad = new Array[String](n)
    val pool = java.util.concurrent.Executors.newFixedThreadPool(threads)
    try {
      val futures = (0 until threads).map { t =>
        pool.submit(new Runnable {
          def run(): Unit = {
            var v = t
            while (v < n) { bad(v) = vertexProblem(engine, v, degree(v), weight(v)); v += threads }
          }
        })
      }
      futures.foreach(_.get())
    } finally pool.shutdown()

    var updatesFailed = 0L
    val problems = Seq.newBuilder[String]
    var reported = 0
    for (v <- 0 until n if bad(v) != null) {
      updatesFailed += math.max(1L, updatesPerVertex(v))
      if (reported < MaxReported) { problems += s"vertex $v: ${bad(v)}"; reported += 1 }
    }

    // walk replay
    val rec = new RecordingEngine(engine)
    val pick = new SplittableRandom(sampleSeed)
    val sample = math.min(sampleWalkers, walkers)
    var walksFailed = 0
    var truncated = 0
    val fixedLength = app match {
      case Walks.DeepWalk(len) => len
      case Walks.Node2vec(len, _, _) => len
      case _ => -1
    }
    for (_ <- 0 until sample) {
      val wid = pick.nextInt(walkers).toLong
      val start = (wid % n).toInt
      rec.lastSample = 0
      val path = Walks.walkPath(rec, app, start, Walks.walkerRng(walkSeed, wid))
      val last = path(path.length - 1)
      var problem: String = null
      var i = 1
      while (i < path.length && problem == null) {
        if (!weight(path(i - 1)).contains(path(i))) problem = s"hop ${path(i - 1)}->${path(i)} is not a live edge"
        i += 1
      }
      if (problem == null && degree(last) > 0) {
        if (rec.lastSample < 0) problem = s"dead end reported at $last, which has ${degree(last)} out-edges"
        else if (fixedLength > 0 && path.length < fixedLength) {
          problem = s"truncated after ${path.length} of $fixedLength vertices"
          truncated += 1
        }
      }
      if (problem != null) {
        walksFailed += 1
        if (reported < MaxReported) { problems += s"walker $wid: $problem"; reported += 1 }
      }
    }
    Result(updatesPerVertex.sum, updatesFailed, sample, walksFailed, truncated, problems.result())
  }

  private def vertexProblem(engine: WalkEngine, v: Int, degree: Int, weight: Map[Int, Double]): String = {
    val d = engine.outDegree(v)
    if (d != degree) return s"outDegree $d, expected $degree"
    val got = engine.exactDistribution(v)
    val total = weight.valuesIterator.sum
    if (got.size != weight.size) return s"${got.size} distinct neighbours, expected ${weight.size}"
    weight.collectFirst {
      case (dst, w) if math.abs(got.getOrElse(dst, -1.0) - w / total) > Tolerance =>
        s"P($dst) = ${got.getOrElse(dst, Double.NaN)}, expected ${w / total}"
    }.orNull
  }
}
