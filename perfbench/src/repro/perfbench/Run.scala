package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import repro.core.GroupType
import repro.engine.{BingoEngine, GraphStore, WalkEngine}
import repro.eval.Bench
import repro.graph.{GraphGen, UpdateGen, UpdateMode}
import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer

/** One benchmark run of workload `w`; see [[Main]]. */
final class Run(spark: SparkSession, w: Workload, o: Main.Opts) {
  import Main._
  import Run._
  import Metrics.median

  private val sc = spark.sparkContext
  private val seeds = new SplittableRandom(o.seed)
  private val graphSeed = seeds.nextLong()
  private val planSeed = seeds.nextLong()
  private val walkSeed = seeds.nextLong()
  private val checkSeed = seeds.nextLong()

  private def say(s: String): Unit = println(s"[perfbench] $s")

  /** graph generate + plan + `factory.build` + register, each timed. */
  private def setup(): Setup = {
    GraphStore.remove(Handle)
    gcHeap()
    val t0 = System.nanoTime()
    val graph = GraphGen.generate(w.spec.copy(seed = graphSeed))
    val t1 = System.nanoTime()
    val rounds = math.min(w.planRounds, (graph.edges.length - 1) / (2 * w.batchSize))
    require(rounds >= 1, s"${w.name}: ${graph.edges.length} edges are too few for batches of ${w.batchSize}")
    val plan = UpdateGen.plan(graph.edges, UpdateMode.Mixed, w.batchSize, rounds, planSeed)
    val t2 = System.nanoTime()
    val heapBefore = gcHeap()
    val t3 = System.nanoTime()
    val engine = BingoEngine.factory().build(graph.numVertices, plan.initialEdges)
    val t4 = System.nanoTime()
    val bingo = engine match {
      case b: BingoEngine => b
      case other => throw new IllegalStateException(s"BingoEngine.factory built a ${other.getClass}")
    }
    val wrapped = if (o.fault) new LossyEngine(engine) else engine
    val registered = if (o.trace) new TracingEngine(wrapped) else wrapped
    GraphStore.register(Handle, registered)
    val t5 = System.nanoTime()
    val heapAfter = gcHeap()
    Setup(plan, graph.numVertices, bingo, registered,
      SetupTiming(secs(t1 - t0), secs(t2 - t1), secs(t4 - t3), secs(t5 - t4)), heapBefore, heapAfter)
  }

  // counter layout: TracingEngine's counters, then ConversionStats'
  private val Touches = TracingEngine.NumCounters
  private val Conversions = TracingEngine.NumCounters + 1

  /** Warm-up, untimed: real rounds of the workload on a throw-away engine
    * for `WarmupShare` × `--seconds`, so the JIT has compiled both the
    * engine's kernels and Spark's job-submission path (planning,
    * scheduling, closure shipping) before anything is timed. The measured engine is built
    * afterwards, so its counts do not depend on how far the warm-up got.
    */
  private def warmUp(): Unit = {
    val s = setup()
    val stream = new UpdateStream(s.plan)
    val deadline = System.nanoTime() + (WarmupShare * o.seconds * 1e9).toLong
    var i = 0
    while (i < 2 || System.nanoTime() < deadline) {
      Bench.applyRoundSpark(spark, Handle, stream.round(i))
      Bench.runWalksSpark(spark, Handle, w.app, w.walkers, walkSeed + i)
      i += 1
    }
  }

  def execute(): Int = {
    warmUp()
    val timings = ArrayBuffer[SetupTiming]()
    var s: Setup = null
    for (_ <- 0 until SetupRepeats) {
      s = null // the previous set-up is garbage before the next one measures the heap
      s = setup()
      timings += s.timing
    }
    val stream = new UpdateStream(s.plan)
    val conv = s.bingo.conversions
    conv.reset() // count the conversions caused by updates only, as Table 4 does
    val tracer = s.registered match { case t: TracingEngine => Some(t); case _ => None }
    val listener = if (o.trace) Some(new SpanListener) else None
    listener.foreach(sc.addSparkListener)

    def counters(): Array[Long] =
      tracer.map(_.snapshot).getOrElse(new Array[Long](TracingEngine.NumCounters)) ++
        Array(conv.totalTouches, conv.totalConversions)

    def runRound(i: Int): RoundRec = {
      val upd = stream.round(i)
      sc.setLocalProperty(SpanListener.SpanProp, s"$i/update")
      val t0 = System.nanoTime()
      val updTask = Bench.applyRoundSpark(spark, Handle, upd)
      val t1 = System.nanoTime()
      sc.setLocalProperty(SpanListener.SpanProp, s"$i/walk")
      val (steps, walkTask) = Bench.runWalksSpark(spark, Handle, w.app, w.walkers, walkSeed + i)
      val t2 = System.nanoTime()
      sc.setLocalProperty(SpanListener.SpanProp, null)
      RoundRec(i, t0, t1, t2, upd.length, steps, updTask, walkTask, if (o.trace) counters() else null)
    }

    // a few rounds on the measured engine, so the timed phase starts from a
    // state that has seen updates, at the same stream position on every run
    (0 until w.warmupRounds).foreach(runRound)
    gcHeap()
    val startCounters = counters()
    val (gcS0, gcN0) = gcTotals()
    val budgetNs = (o.seconds * 1e9).toLong
    val t0 = System.nanoTime()
    val recs = ArrayBuffer[RoundRec]()
    var census = Map.empty[GroupType, Long]
    var i = w.warmupRounds
    while (recs.length < w.countRounds || System.nanoTime() - t0 < budgetNs) {
      recs += runRound(i)
      i += 1
      if (o.trace && recs.length == w.countRounds) census = s.bingo.groupTypeCensus
    }
    val t1 = System.nanoTime()
    val (gcS1, gcN1) = gcTotals()
    val heapAfter = gcHeap()
    val memEstimate = s.registered.memoryBytes

    // ---- output check (untimed) -------------------------------------------
    val updatesPerVertex = new Array[Long](s.numVertices)
    (0 until i).foreach(r => stream.round(r).foreach(u => updatesPerVertex(u.src) += 1))
    val check = OutputCheck.run(s.registered, s.plan.edgeMultisetAfter(stream.positionAfter(i)), updatesPerVertex,
      w.app, w.walkers, walkSeed + i - 1, CheckedWalkers, checkSeed, sc.defaultParallelism)

    // ---- report -----------------------------------------------------------
    say(Metrics.json(envFields: _*))
    val roundTimes = recs.map(_.roundS).toSeq
    say(f"rounds: ${w.warmupRounds} warm-up + ${recs.length} timed in ${secs(t1 - t0)}%.2f s; plan " +
      s"${s.plan.rounds.length} rounds x ${w.batchSize} updates; ${w.walkers} walkers of ${w.app}")
    if (roundTimes.length >= 100)
      say(f"round_s.p90 = ${Metrics.quantile(roundTimes, 0.9)}%.6f s (n = ${roundTimes.length} rounds)")
    else say(s"round_s.p90 = n/a (n = ${roundTimes.length} rounds < 100)")
    say(s"check: ${check.updates} updates (${check.updatesFailed} failed), ${check.walks} walks " +
      s"(${check.walksFailed} failed, ${check.truncated} truncated); " +
      f"ops_failed_frac = ${check.failed.toDouble / check.attempted}%.6f ratio")
    check.problems.foreach(p => say(s"check failure: $p"))

    val metrics: Seq[(String, Double)] =
      if (!o.trace) Seq(
        "setup_s" -> median(timings.map(_.total).toSeq),
        "round_s.p50" -> median(roundTimes),
        "update_s.p50" -> median(recs.map(_.updateS).toSeq),
        "updates_per_s" -> recs.map(_.updates.toLong).sum / recs.map(_.updateS).sum,
        "walk_steps_per_s" -> recs.map(_.steps).sum / recs.map(_.walkS).sum,
        "heap_mb" -> (heapAfter - s.heapBeforeBuild) / 1e6,
      )
      else {
        val l = listener.get
        l.drain(sc)
        o.spans.foreach(p => writeSpans(p, recs.toSeq, startCounters, t0, t1, l))
        perLayer(timings.toSeq, s, recs.toSeq, startCounters, census, memEstimate, l, gcS1 - gcS0, gcN1 - gcN0,
          check)
      }
    val byName = metrics.toMap
    val spec = if (o.trace) Metrics.PerLayer else Metrics.EndToEnd
    require(spec.map(_.name).toSet == byName.keySet, s"metric set mismatch: ${spec.map(_.name).toSet.diff(byName.keySet) ++ byName.keySet.diff(spec.map(_.name).toSet)}")
    spec.foreach { m =>
      val where = if (m.moves.isEmpty) "" else s"  [moves ${m.moves} on ${m.on}]"
      say(f"${m.name}%-28s ${byName(m.name)}%18.6f ${m.unit}$where")
    }
    println(Metrics.json(
      "correct" -> (check.failed == 0),
      "attempted" -> check.attempted,
      "failed" -> check.failed,
      "metrics" -> ListMap(spec.map(m => m.name -> ListMap("value" -> byName(m.name), "unit" -> m.unit)): _*),
    ))
    Console.flush()
    if (check.failed == 0) 0 else 1
  }

  private def envFields: Seq[(String, Any)] = {
    val rt = Runtime.getRuntime
    Seq(
      "workload" -> w.name, "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> o.trace,
      "scale" -> (if (o.tiny) "tiny" else "full"), "cores" -> rt.availableProcessors,
      "xmx_mb" -> rt.maxMemory / (1L << 20), "jvm" -> System.getProperty("java.vm.version"),
      "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.toArray.toSeq,
      "spark" -> spark.version, "scala" -> scala.util.Properties.versionNumberString, "master" -> sc.master,
      "git_sha" -> o.gitSha, "source_id" -> o.sourceId,
    )
  }

  private def perLayer(
      timings: Seq[SetupTiming],
      s: Setup,
      recs: Seq[RoundRec],
      start: Array[Long],
      census: Map[GroupType, Long],
      memEstimate: Long,
      l: SpanListener,
      gcS: Double,
      gcN: Long,
      check: OutputCheck.Result,
  ): Seq[(String, Double)] = {
    import TracingEngine._
    val window = recs(w.countRounds - 1).counters.zip(start).map { case (a, b) => (a - b).toDouble }
    val phase = recs.last.counters.zip(start).map { case (a, b) => (a - b).toDouble }
    val perRound = recs.indices.map { j =>
      val prev = if (j == 0) start else recs(j - 1).counters
      recs(j).counters.zip(prev).map { case (a, b) => a - b }
    }
    def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

    val jobsByTag = l.jobSpans.groupBy(_.tag)
    val tasksByJob = l.taskSpans.groupBy(_.jobId)
    def tasksOf(tag: String) = jobsByTag.getOrElse(tag, Nil).flatMap(j => tasksByJob.getOrElse(j.jobId, Nil))
    def skew(tag: String): Option[Double] = {
      val cpu = tasksOf(tag).map(_.cpuNs.toDouble)
      if (cpu.isEmpty || median(cpu) <= 0) None else Some(cpu.max / median(cpu))
    }
    def medianOr0(xs: Seq[Double]) = if (xs.isEmpty) 0.0 else median(xs)
    def phaseMetrics(p: String, wall: RoundRec => Double, inTask: RoundRec => Double) = Seq(
      s"eval.${p}_job_s" -> median(recs.map(wall)),
      s"eval.${p}_task_max_s" -> median(recs.map(inTask)),
      s"eval.${p}_overhead_s" -> median(recs.map(r => wall(r) - SpanListener.coverMs(tasksOf(s"${r.i}/$p")) / 1e3)),
      s"eval.${p}_task_skew" -> medianOr0(recs.flatMap(r => skew(s"${r.i}/$p"))),
    )
    val timedTags = recs.flatMap(r => Seq(s"${r.i}/update", s"${r.i}/walk"))
    val walkCpuNs = recs.flatMap(r => tasksOf(s"${r.i}/walk")).map(_.cpuNs.toDouble).sum
    val windowSteps = recs.take(w.countRounds).map(_.steps).sum.toDouble
    Seq(
      "graph.generate_s" -> median(timings.map(_.generate)),
      "graph.plan_s" -> median(timings.map(_.plan)),
      "engine.build_s" -> median(timings.map(_.build)),
      "engine.build_heap_mb" -> (s.heapAfterBuild - s.heapBeforeBuild) / 1e6,
      "engine.mem_estimate_mb" -> memEstimate / 1e6,
      "engine.apply_ns_per_update" -> ratio(phase(ApplyNanos), phase(ApplyUpdates)),
      "engine.apply_calls" -> window(ApplyCalls),
      "engine.post_round_s" -> median(perRound.map(c => c(PostRoundNanos) / 1e9)),
      "core.group_touches" -> window(Touches),
      "core.group_conversions" -> window(Conversions),
      "core.groups.dense" -> census.getOrElse(GroupType.Dense, 0L).toDouble,
      "core.groups.regular" -> census.getOrElse(GroupType.Regular, 0L).toDouble,
      "core.groups.sparse" -> census.getOrElse(GroupType.Sparse, 0L).toDouble,
      "core.groups.one_element" -> census.getOrElse(GroupType.OneElement, 0L).toDouble,
    ) ++ phaseMetrics("update", _.updateS, _.updateTaskS) ++ Seq(
      "eval.task_deserialize_s" ->
        median(recs.map(r => (tasksOf(s"${r.i}/update") ++ tasksOf(s"${r.i}/walk")).map(_.deserializeMs).sum / 1e3)),
      "eval.jobs_per_round" -> timedTags.map(t => jobsByTag.getOrElse(t, Nil).size).sum.toDouble / recs.length,
      "engine.sample_next_calls" -> window(SampleCalls),
      "engine.sample_next_ns" -> ratio(phase(SampleNanos), phase(SampleCalls)),
      "engine.has_edge_calls" -> window(HasEdgeCalls),
      "engine.has_edge_ns" -> ratio(phase(HasEdgeNanos), phase(HasEdgeCalls)),
      "engine.dead_ends" -> window(DeadEnds),
      "walk.steps" -> windowSteps,
      "walk.ns_per_step" -> ratio(walkCpuNs, recs.map(_.steps).sum.toDouble),
      "walk.n2v_accept_ratio" -> ratio(windowSteps, window(SampleCalls)),
      "walk.truncated" -> check.truncated.toDouble,
    ) ++ phaseMetrics("walk", _.walkS, _.walkTaskS) ++ Seq(
      "jvm.gc_s" -> gcS,
      "jvm.gc_count" -> gcN.toDouble,
      "trace.round_s.p50" -> median(recs.map(_.roundS)),
    )
  }

  /** Spans run → round → phase → Spark job → task, one JSON object a line.
    * `System.nanoTime` times are mapped onto the epoch clock that Spark's times use.
    */
  private def writeSpans(
      path: String,
      recs: Seq[RoundRec],
      start: Array[Long],
      t0: Long,
      t1: Long,
      l: SpanListener,
  ): Unit = {
    val offset = System.currentTimeMillis() * 1000000L - System.nanoTime()
    val names = TracingEngine.Names ++ Seq("group_touches", "group_conversions")
    val jobsByTag = l.jobSpans.groupBy(_.tag)
    val tasksByJob = l.taskSpans.groupBy(_.jobId)
    val file = new java.io.File(path)
    Option(file.getParentFile).foreach(_.mkdirs())
    val pw = new java.io.PrintWriter(file, "UTF-8")
    try {
      pw.println(Metrics.json(("id" -> "env") +: envFields: _*))
      pw.println(Metrics.json("id" -> "run", "parent" -> null, "name" -> "run", "start_ns" -> (t0 + offset),
        "end_ns" -> (t1 + offset), "rounds" -> recs.length))
      var prev = start
      recs.foreach { r =>
        val rid = s"r${r.i}"
        val delta = ListMap(names.zip(r.counters.zip(prev).map { case (a, b) => a - b }): _*)
        prev = r.counters
        pw.println(Metrics.json("id" -> rid, "parent" -> "run", "name" -> "round", "start_ns" -> (r.startNs + offset),
          "end_ns" -> (r.endNs + offset), "updates" -> r.updates, "steps" -> r.steps, "counters" -> delta))
        Seq(("update", r.startNs, r.midNs, r.updateTaskS), ("walk", r.midNs, r.endNs, r.walkTaskS)).foreach {
          case (p, a, b, inTask) =>
            val pid = s"$rid/$p"
            pw.println(Metrics.json("id" -> pid, "parent" -> rid, "name" -> s"${p}_phase", "start_ns" -> (a + offset),
              "end_ns" -> (b + offset), "in_task_max_s" -> inTask))
            jobsByTag.getOrElse(s"${r.i}/$p", Nil).foreach { j =>
              pw.println(Metrics.json("id" -> s"job${j.jobId}", "parent" -> pid, "name" -> "spark_job",
                "start_ns" -> j.startMs * 1000000L, "end_ns" -> j.endMs * 1000000L))
              tasksByJob.getOrElse(j.jobId, Nil).foreach { t =>
                pw.println(Metrics.json("id" -> s"task${t.taskId}", "parent" -> s"job${j.jobId}", "name" -> "task",
                  "start_ns" -> t.launchMs * 1000000L, "end_ns" -> t.finishMs * 1000000L, "run_ms" -> t.runMs,
                  "cpu_ns" -> t.cpuNs, "deserialize_ms" -> t.deserializeMs))
              }
            }
        }
      }
    } finally pw.close()
  }
}

object Run {
  import Main.secs

  final case class SetupTiming(generate: Double, plan: Double, build: Double, register: Double) {
    def total: Double = generate + plan + build + register
  }

  final case class Setup(
      plan: UpdateGen.Plan,
      numVertices: Int,
      bingo: BingoEngine,
      registered: WalkEngine,
      timing: SetupTiming,
      heapBeforeBuild: Long,
      heapAfterBuild: Long,
  )

  /** One round: wall times around each Spark call, in-task critical paths, counters. */
  final case class RoundRec(
      i: Int,
      startNs: Long,
      midNs: Long,
      endNs: Long,
      updates: Int,
      steps: Long,
      updateTaskS: Double,
      walkTaskS: Double,
      counters: Array[Long],
  ) {
    def roundS: Double = secs(endNs - startNs)
    def updateS: Double = secs(midNs - startNs)
    def walkS: Double = secs(endNs - midNs)
  }
}
