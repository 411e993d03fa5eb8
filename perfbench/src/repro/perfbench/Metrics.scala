package repro.perfbench

/** The benchmark's metrics. Names and units must match BENCHMARK.json
  * (the benchmark's tests check that they do).
  *
  * Each per-layer metric names the end-to-end metric it should move and the
  * workload it should move it on; a traced run prints that mapping.
  */
final case class Metric(name: String, unit: String, moves: String = "", on: String = "")

object Metrics {
  val EndToEnd: Seq[Metric] = Seq(
    Metric("setup_s", "s"),
    Metric("round_s.p50", "s"),
    Metric("update_s.p50", "s"),
    Metric("updates_per_s", "updates/s"),
    Metric("walk_steps_per_s", "steps/s"),
    Metric("heap_mb", "MB"),
  )

  private val Tw = "tw-update-storm"
  private val Lj = "lj-node2vec"
  private val Go = "go-fresh-rounds"
  private val AllW = "all"

  val PerLayer: Seq[Metric] = Seq(
    Metric("graph.generate_s", "s", "setup_s", AllW),
    Metric("graph.plan_s", "s", "setup_s", AllW),
    Metric("engine.build_s", "s", "setup_s", s"$AllW, mostly $Tw"),
    Metric("engine.build_heap_mb", "MB", "heap_mb", AllW),
    Metric("engine.mem_estimate_mb", "MB", "heap_mb", AllW),
    Metric("engine.apply_ns_per_update", "ns", "updates_per_s, update_s.p50", Tw),
    Metric("engine.apply_calls", "count", "updates_per_s, update_s.p50", Tw),
    Metric("engine.post_round_s", "s", "updates_per_s, update_s.p50", Tw),
    Metric("core.group_touches", "count", "updates_per_s, heap_mb", Tw),
    Metric("core.group_conversions", "count", "updates_per_s, heap_mb", Tw),
    Metric("core.groups.dense", "count", "updates_per_s, heap_mb", Tw),
    Metric("core.groups.regular", "count", "updates_per_s, heap_mb", Tw),
    Metric("core.groups.sparse", "count", "updates_per_s, heap_mb", Tw),
    Metric("core.groups.one_element", "count", "updates_per_s, heap_mb", Tw),
    Metric("eval.update_job_s", "s", "update_s.p50, round_s.p50", s"$Tw, $Go"),
    Metric("eval.update_task_max_s", "s", "update_s.p50, round_s.p50", s"$Tw, $Go"),
    Metric("eval.update_overhead_s", "s", "update_s.p50, round_s.p50", s"$Tw, $Go"),
    Metric("eval.update_task_skew", "ratio", "update_s.p50, round_s.p50", s"$Tw, $Go"),
    Metric("eval.task_deserialize_s", "s", "round_s.p50", Go),
    Metric("eval.jobs_per_round", "count", "round_s.p50", Go),
    Metric("engine.sample_next_calls", "count", "walk_steps_per_s", Lj),
    Metric("engine.sample_next_ns", "ns", "walk_steps_per_s", Lj),
    Metric("engine.has_edge_calls", "count", "walk_steps_per_s", Lj),
    Metric("engine.has_edge_ns", "ns", "walk_steps_per_s", Lj),
    Metric("engine.dead_ends", "count", "walk_steps_per_s", Lj),
    Metric("walk.steps", "count", "walk_steps_per_s", Lj),
    Metric("walk.ns_per_step", "ns", "walk_steps_per_s", Lj),
    Metric("walk.n2v_accept_ratio", "ratio", "walk_steps_per_s", Lj),
    Metric("walk.truncated", "count", "walk_steps_per_s, failed/attempted", Lj),
    Metric("eval.walk_job_s", "s", "walk_steps_per_s, round_s.p50", s"$Lj, $Go"),
    Metric("eval.walk_task_max_s", "s", "walk_steps_per_s, round_s.p50", s"$Lj, $Go"),
    Metric("eval.walk_overhead_s", "s", "walk_steps_per_s, round_s.p50", s"$Lj, $Go"),
    Metric("eval.walk_task_skew", "ratio", "walk_steps_per_s, round_s.p50", s"$Lj, $Go"),
    Metric("jvm.gc_s", "s", "updates_per_s, walk_steps_per_s", s"$Tw, $Lj"),
    Metric("jvm.gc_count", "count", "updates_per_s, walk_steps_per_s", s"$Tw, $Lj"),
    Metric("trace.round_s.p50", "s", "round_s.p50 (traced minus untraced = tracing overhead)", AllW),
  )

  /** Median (mean of the two middle values for an even count). */
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile, `q` in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def jsonString(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def jsonValue(v: Any): String = v match {
    case null => "null"
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite value $d")
      d.toString
    case n @ (_: Int | _: Long) => n.toString
    case b: Boolean => b.toString
    case s: String => jsonString(s)
    case m: Map[_, _] => m.map { case (k, x) => jsonString(k.toString) + ": " + jsonValue(x) }.mkString("{", ", ", "}")
    case xs: Seq[_] => xs.map(jsonValue).mkString("[", ", ", "]")
    case other => jsonString(other.toString)
  }

  /** One JSON object with the fields in the given order. */
  def json(fields: (String, Any)*): String =
    fields.map { case (k, v) => jsonString(k) + ": " + jsonValue(v) }.mkString("{", ", ", "}")
}
