package repro.perfbench

import repro.graph.{GraphGen, Update, UpdateGen, UpdateMode}
import repro.walk.Walks

/** One benchmark workload: a -lite dataset, an update batch size and a walk
  * application, run as the paper's round protocol (§6.1).
  *
  * @param planRounds   rounds in the `UpdateGen` plan; capped so that
  *                     rounds·batch < |E|/2 (the protocol limit)
  * @param warmupRounds rounds run untimed before the timed phase
  * @param countRounds  first rounds of the timed phase whose exact counts
  *                     are reported (every run executes at least these, so
  *                     the counts repeat for a fixed seed)
  */
final case class Workload(
    name: String,
    spec: GraphGen.DatasetSpec,
    app: Walks.WalkApp,
    walkers: Int,
    batchSize: Int,
    planRounds: Int,
    warmupRounds: Int,
    countRounds: Int,
) {

  /** A ~20× smaller variant with the same shape, for the benchmark's tests. */
  def tiny: Workload = copy(
    spec = spec.copy(
      nVertices = spec.nVertices / 20,
      targetEdges = spec.targetEdges / 20,
      maxDegree = math.max(10, spec.maxDegree / 20),
    ),
    walkers = math.max(64, walkers / 20),
    batchSize = math.max(20, batchSize / 20),
    warmupRounds = 2,
    countRounds = 3,
  )
}

object Workload {
  // Each workload stresses a different layer (see perfbench/README.md):
  //  - tw-update-storm: the write path (core applyBatch, engine updates, the
  //    eval closure that carries the round's updates); walks nearly idle.
  //  - lj-node2vec: the read path (sampleNext + hasEdge of node2vec's
  //    rejection step) with walkers = |V|, the paper's default.
  //  - go-fresh-rounds: many small rounds, where Spark job launch dominates;
  //    the only workload with >= 100 rounds per run.
  val All: Seq[Workload] = Seq(
    Workload("tw-update-storm", GraphGen.TW, Walks.DeepWalk(20), 512, 20000, 17, 6, 10),
    Workload("lj-node2vec", GraphGen.LJ, Walks.Node2vec(80, 0.5, 2.0), GraphGen.LJ.nVertices, 1000, 150, 4, 6),
    Workload("go-fresh-rounds", GraphGen.GO, Walks.Ppr(1.0 / 80, 400), 1024, 200, 120, 30, 60),
  )

  def byName(n: String): Workload =
    All.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$n' (known: ${All.map(_.name).mkString(", ")})"))
}

/** The update stream of a run: the plan's rounds forward, then the same
  * rounds inverted in reverse order (each insert becomes a delete and vice
  * versa), and again. Every round is a valid Mixed batch on the state it
  * meets, so a run can last as long as the timed phase needs while the
  * plan stays within the protocol limit. After `n` rounds the graph equals
  * `plan.edgeMultisetAfter(positionAfter(n))`.
  */
final class UpdateStream(val plan: UpdateGen.Plan) {
  require(plan.mode == UpdateMode.Mixed)
  private val r = plan.rounds.length
  private val inverted: Vector[Vector[Update]] = plan.rounds.map { round =>
    round.reverse.zipWithIndex.map { case (u, i) => u.copy(ts = i.toLong, insert = !u.insert) }
  }

  def round(i: Int): Vector[Update] = {
    val phase = i % (2 * r)
    if (phase < r) plan.rounds(phase) else inverted(2 * r - 1 - phase)
  }

  /** Plan rounds the graph has advanced by after rounds `0 until n`. */
  def positionAfter(n: Int): Int = {
    val phase = n % (2 * r)
    if (phase <= r) phase else 2 * r - phase
  }
}
