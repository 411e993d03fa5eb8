package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.{SparkSpec, StatCheck}
import repro.engine._
import repro.graph._
import repro.walk.Walks

/** Harness-level integration tests: Spark-routed updates are equivalent to
  * local application, and the table runners produce sane output at tiny
  * scale (the full-scale runs live in bench/).
  */
class EvalSpec extends AnyFunSuite with SparkSpec {

  private val tinyParams = Bench.Params(batchSize = 50, rounds = 2, walkers = 64, walkLength = 10)

  test("applyRoundSpark ≡ applyRoundLocal for every engine") {
    val g = GraphGen.generate(GraphGen.AM)
    val plan = UpdateGen.plan(g.edges, UpdateMode.Mixed, 200, 2, 17L)
    val rng = new Random(23L)
    // the same rounds with each round's updates shuffled out of ts order
    val shuffled = plan.rounds.map(rng.shuffle(_))
    assert(shuffled.zip(plan.rounds).exists { case (s, r) => s != r })
    Tables.frameworks.foreach { f =>
      val viaLocal = f.build(g.numVertices, plan.initialEdges)
      plan.rounds.foreach(viaLocal.applyRoundLocal)
      Seq("in ts order" -> plan.rounds, "shuffled" -> shuffled).foreach { case (label, rounds) =>
        val viaSpark = f.build(g.numVertices, plan.initialEdges)
        GraphStore.register("eval-spec-eq", viaSpark)
        try rounds.foreach(Bench.applyRoundSpark(spark, "eval-spec-eq", _))
        finally GraphStore.remove("eval-spec-eq")
        // spot-check exact distributions on the 50 highest-degree vertices
        val hot = (0 until g.numVertices).sortBy(-viaLocal.outDegree(_)).take(50)
        hot.foreach { u =>
          val a = viaSpark.exactDistribution(u)
          val b = viaLocal.exactDistribution(u)
          assert(a.keySet == b.keySet, s"${f.name} ($label) vertex $u")
          b.foreach { case (d, p) => StatCheck.assertProbEqual(a(d), p, 1e-9) }
        }
      }
    }
  }

  test("applyRoundSpark rejects a round with an out-of-range src and applies none of it") {
    val eng = BingoEngine.factory().build(4, Seq(Edge(0, 1, 1.0), Edge(1, 2, 1.0)))
    GraphStore.register("eval-spec-src", eng)
    try {
      Seq(-1, 4).foreach { bad =>
        val round = Seq(Update(1L, insert = true, 0, 2, 1.0), Update(2L, insert = true, bad, 0, 1.0))
        val e = intercept[IllegalArgumentException](Bench.applyRoundSpark(spark, "eval-spec-src", round))
        assert(e.getMessage.contains("outside [0, 4)"), e.getMessage)
        assert(eng.outDegree(0) == 1, s"src $bad: the valid update of the rejected round was applied")
      }
    } finally GraphStore.remove("eval-spec-src")
  }

  test("sliceRound: one slice per task, each update in slice src % p, ts order per src") {
    val rng = new Random(5L)
    // ts values shuffled and repeated across sources; vertex 9 has no updates
    val shuffled = rng.shuffle((0 until 120).map { i =>
      Update(ts = rng.nextInt(40).toLong, insert = i % 3 != 0, src = i % 9, dst = i, bias = i + 0.5)
    })
    for (round <- Seq(shuffled, shuffled.sortBy(_.ts)); p <- Seq(1, 3, 4)) {
      val slices = Bench.sliceRound(round, p, numVertices = 10)
      assert(slices.map(_.slice).toSeq == (0 until p), s"p=$p")
      val back = slices.toSeq.flatMap { s =>
        s.src.indices.map(i => Update(s.ts(i), s.insert(i), s.src(i), s.dst(i), s.bias(i)))
      }
      assert(back.sortBy(_.dst) == round.sortBy(_.dst), s"p=$p: every update in exactly one slice")
      slices.foreach { s =>
        assert(s.src.forall(_ % p == s.slice), s"p=$p slice ${s.slice}")
        // grouped by src: each src forms one run, and its ts never decreases
        val runs = s.src.toSeq.foldLeft(List.empty[Int])((acc, v) => if (acc.headOption.contains(v)) acc else v :: acc)
        assert(runs.distinct.size == runs.size, s"p=$p slice ${s.slice}: src not grouped")
        (1 until s.src.length).foreach(i => if (s.src(i) == s.src(i - 1)) assert(s.ts(i - 1) <= s.ts(i)))
        var seen = Vector.empty[(Int, Seq[Update])]
        s.foreachVertex((v, us) => seen :+= (v -> us))
        assert(seen.map(_._1) == runs.reverse)
        seen.foreach { case (v, us) =>
          assert(us == round.filter(_.src == v).sortBy(_.ts), s"p=$p vertex $v")
        }
      }
    }
    // more tasks than updates: the empty slices are still emitted, one per task
    val one = Bench.sliceRound(Seq(Update(0L, insert = true, 2, 1, 1.0)), 4, numVertices = 10)
    assert(one.length == 4 && one.map(_.src.length).toSeq == Seq(0, 0, 1, 0))
    assert(Bench.sliceRound(Seq.empty, 3, numVertices = 10).map(_.src.length).toSeq == Seq(0, 0, 0))
  }

  for (f <- Tables.frameworks) {
    test(s"runConfig smoke: ${f.name} on AM-lite/tiny params") {
      val g = GraphGen.generate(GraphGen.AM)
      val r = Bench.runConfig(spark, g, Walks.DeepWalk(10), UpdateMode.Mixed, f, tinyParams)
      assert(r.steps > 0)
      assert(r.memMB > 0)
      assert(r.updateSec >= 0 && r.walkSec >= 0)
      assert(r.framework == f.name)
    }
  }

  test("table1Rows: all samplers measured, positive costs") {
    val rows = Tables.table1Rows(degrees = Seq(64, 256), opCount = 50, sampleCount = 2000)
    assert(rows.size == 4 * 2)
    rows.foreach { r =>
      assert(r.insertNs > 0 && r.deleteNs > 0 && r.sampleNs > 0)
      assert(r.memBytes > 0)
    }
    assert(rows.map(_.method).distinct.size == 4)
  }

  test("scalingExponent: linear data has slope ~1, flat data ~0") {
    val lin = Seq((100, 100.0), (1000, 1000.0), (10000, 10000.0))
    assert(math.abs(Tables.scalingExponent(lin) - 1.0) < 0.01)
    val flat = Seq((100, 5.0), (1000, 5.0), (10000, 5.0))
    assert(math.abs(Tables.scalingExponent(flat)) < 0.01)
  }

  test("table2Rows via Spark matches driver-side stats") {
    val specs = Seq(GraphGen.AM)
    val row = Tables.table2Rows(spark, specs).head
    val g = GraphGen.generate(GraphGen.AM)
    assert(row.vertices == g.numVertices)
    assert(row.edges == g.edges.size)
    assert(row.maxDeg == g.edges.groupBy(_.src).map(_._2.size).max)
  }

  test("table3Format produces a row per app/mode/framework with speedups") {
    val g = GraphGen.generate(GraphGen.AM)
    val rows = for {
      fw <- Tables.frameworks
    } yield Bench.runConfig(spark, g, Walks.DeepWalk(8), UpdateMode.Insertion, fw, tinyParams)
    val out = Tables.table3Format(rows, Seq(GraphGen.AM))
    assert(out.contains("Bingo"))
    assert(out.contains("KnightKing"))
    assert(out.contains("gSampler"))
    assert(out.contains("FlowWalker"))
  }

  test("conversion stats on a real workload stay rare (Table 4 shape)") {
    val g = GraphGen.generate(GraphGen.AM)
    val plan = UpdateGen.plan(g.edges, UpdateMode.Mixed, 500, 4, 19L)
    val engine = new BingoEngine(g.numVertices)
    plan.initialEdges.groupBy(_.src).foreach { case (src, es) =>
      engine.vertices(src).applyBatch(es.map(x => (x.dst, x.bias)), Seq.empty)
    }
    engine.conversions.reset()
    plan.rounds.foreach(engine.applyRoundLocal)
    val cs = engine.conversions
    assert(cs.totalTouches > 0)
    // conversions must be a small fraction of touches (paper: max 0.47%... we
    // allow a loose bound at this tiny scale)
    assert(cs.totalConversions < cs.totalTouches, s"${cs.totalConversions} vs ${cs.totalTouches}")
    val census = engine.groupTypeCensus
    assert(census.values.sum > 0)
  }

  test("walk workload scales with walkers and length") {
    val g = GraphGen.generate(GraphGen.AM)
    val eng = BingoEngine.factory().build(g.numVertices, g.edges)
    GraphStore.register("eval-spec-scale", eng)
    try {
      val s1 = Walks.runCounted(spark, "eval-spec-scale", Walks.DeepWalk(5), 32, 1L)
      val s2 = Walks.runCounted(spark, "eval-spec-scale", Walks.DeepWalk(10), 64, 1L)
      assert(s1 == 32 * 4)
      assert(s2 == 64 * 9)
    } finally GraphStore.remove("eval-spec-scale")
  }
}
