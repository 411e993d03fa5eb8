package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession

/** Bingo under a live update stream: warm-up, set-up, then rounds of
  * `Bench.applyRoundSpark` + `Bench.runWalksSpark` back to back (a closed
  * loop, one submitting thread) for `--seconds`, then an untimed output check.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *   [--scale full|tiny] [--fault none|drop-one-update] [--spans <file>]
  *   [--git-sha <sha>] [--source-id <id>]`
  *
  * The last line of standard output is one JSON object: the end-to-end
  * metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
  * exit code is 1 when the output check finds a failure.
  */
object Main {

  final case class Opts(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      tiny: Boolean,
      fault: Boolean,
      spans: Option[String],
      gitSha: String,
      sourceId: String,
  )

  val SetupRepeats = 3
  /** Warm-up time, as a share of `--seconds`. */
  val WarmupShare = 1.0
  val CheckedWalkers = 2000
  val Handle = "perfbench"

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case a => throw new IllegalArgumentException(s"bad argument: ${a.mkString(" ")}")
    }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val scale = m.getOrElse("scale", "full")
    val fault = m.getOrElse("fault", "none")
    require(Set("full", "tiny")(scale), s"--scale must be full or tiny, got $scale")
    require(Set("none", "drop-one-update")(fault), s"--fault must be none or drop-one-update, got $fault")
    require(Set("0", "1")(need("trace")), "--trace must be 0 or 1")
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      scale == "tiny", fault != "none", m.get("spans"), m.getOrElse("git-sha", "unknown"),
      m.getOrElse("source-id", "unknown"))
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val base = Workload.byName(o.workload)
    val w = if (o.tiny) base.tiny else base
    val k = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder()
      .master(s"local[$k]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", sys.props("java.io.tmpdir") + "/spark-local")
      .config("spark.sql.warehouse.dir", sys.props("java.io.tmpdir") + "/spark-warehouse")
      // keep Spark's job history small and bounded, so the retained heap
      // does not grow with the number of rounds a run completes
      .config("spark.ui.retainedJobs", "20")
      .config("spark.ui.retainedStages", "20")
      .config("spark.ui.retainedTasks", "200")
      .config("spark.sql.ui.retainedExecutions", "20")
      .getOrCreate()
    val code =
      try new Run(spark, w, o).execute()
      finally spark.stop()
    sys.exit(code)
  }

  /** Heap in use after a full collection. */
  def gcHeap(): Long = {
    System.gc()
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** (total collection seconds, total collection count) of all collectors. */
  def gcTotals(): (Double, Long) = {
    var ms = 0L
    var n = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach { b =>
      ms += math.max(0L, b.getCollectionTime)
      n += math.max(0L, b.getCollectionCount)
    }
    (ms / 1e3, n)
  }

  def secs(ns: Long): Double = ns / 1e9
}

