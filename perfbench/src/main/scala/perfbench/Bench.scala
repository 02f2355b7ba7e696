package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.sql.SparkSession

/** Operation outcomes of one measured phase. Latencies are in ms and hold
  * successful operations only; a failed one counts in `failed`. */
final class Outcomes {
  val reads = mutable.ArrayBuffer[Double]()
  /** Successful read latencies by query id. */
  val readsById = mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]]()
  val writes = mutable.ArrayBuffer[Double]()
  var attempted = 0
  var failed = 0
  var wallNs = 0L

  def read(ms: Double, ok: Boolean, id: String = "read"): Unit = {
    record(reads, ms, ok)
    if (ok) readsById.getOrElseUpdate(id, mutable.ArrayBuffer.empty) += ms
  }
  def write(ms: Double, ok: Boolean): Unit = record(writes, ms, ok)

  private def record(into: mutable.ArrayBuffer[Double], ms: Double, ok: Boolean): Unit = {
    attempted += 1
    if (ok) into += ms else failed += 1
  }

  def completed: Int = attempted - failed
  def throughput: Double = completed / (wallNs / 1e9)
}

/** One named workload. `setup` does everything before the first timed
  * operation; `measure` runs a closed loop with one client over a fixed
  * number of whole rounds, so every query weighs the same in each run and
  * a faster program does the same work in less time. */
trait Workload {
  /** Time of one round on the reference machine (4 cores, SF 1). A phase
    * of `s` seconds runs `s / roundSeconds` rounds, rounded, at least one. */
  def roundSeconds: Double
  def setup(): Unit
  def measure(rounds: Int, rnd: Random, t: Tracer, out: Outcomes): Unit
  /** Per-layer figures from the traced phase's spans and counters. */
  def layerMetrics(t: Tracer, out: Outcomes): Map[String, Double]
  /** Single-layer probes, run after the traced phase. */
  def probes(): Map[String, Double] = Map.empty
  /** Figures taken after the traced phase and the probes. */
  def finish(): Map[String, Double] = Map.empty
  def provenance: Map[String, Any]
}

object Bench {
  val Workloads: Seq[String] = Seq("tpcds_warm", "tpcds_cold", "ssb_druid_mv", "acid_mixed")
  /** Scale factor of the generated data (tests build smaller configs). */
  val Sf = 1.0
  val ShufflePartitions = 8

  final case class Config(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      sf: Double,
      work: File,
      out: File,
      t0Ms: Long,
      sourceSha: String)

  def parse(args: Array[String]): Config = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = get("workload")
    require(Workloads.contains(w), s"unknown workload $w; one of ${Workloads.mkString(", ")}")
    Config(
      workload = w,
      seed = get("seed").toLong,
      seconds = get("seconds").toDouble,
      trace = get("trace") == "1",
      sf = Sf,
      work = new File(get("work")),
      out = new File(get("out")),
      t0Ms = get("t0-ms").toLong,
      sourceSha = get("source-sha"))
  }

  def session(work: File): SparkSession = {
    val nproc = Runtime.getRuntime.availableProcessors()
    SparkSession.builder()
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(work, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getAbsolutePath)
      .config("spark.hadoop.hadoop.tmp.dir", new File(work, "hadoop-tmp").getAbsolutePath)
      .getOrCreate()
  }

  def workload(name: String, spark: SparkSession, sf: Double, work: File): Workload = name match {
    case "tpcds_warm"   => new TpcdsWorkload(spark, sf, cold = false, work)
    case "tpcds_cold"   => new TpcdsWorkload(spark, sf, cold = true, work)
    case "ssb_druid_mv" => new SsbDruidWorkload(spark, sf, work)
    case "acid_mixed"   => new AcidMixedWorkload(spark, work)
  }

  /** Result of one run: the contract's four keys plus provenance. */
  final case class Result(
      correct: Boolean, attempted: Int, failed: Int,
      metrics: Seq[(String, Double)], provenance: collection.Map[String, Any]) {
    def toJson: String = Json.render(mutable.LinkedHashMap[String, Any](
      "correct" -> correct,
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> mutable.LinkedHashMap(metrics.map { case (n, v) =>
        n -> mutable.LinkedHashMap[String, Any]("value" -> v, "unit" -> Metrics.unitOf(n))
      }: _*),
      "provenance" -> provenance))
  }

  /** Logs a set-up phase and its duration to stderr. */
  def phase[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val r = body
    Console.err.println(f"[perfbench] $name: ${(System.nanoTime() - t0) / 1e9}%.2f s")
    r
  }

  def main(args: Array[String]): Unit = {
    val cfg = parse(args)
    val result = run(cfg)
    cfg.out.getAbsoluteFile.getParentFile.mkdirs()
    val w = new PrintWriter(cfg.out, "UTF-8")
    try w.println(result.toJson) finally w.close()
  }

  def run(cfg: Config): Result = {
    cfg.work.mkdirs()
    val spark = session(cfg.work)
    try {
      val wl = workload(cfg.workload, spark, cfg.sf, cfg.work)
      wl.setup()
      phase("compiler idle")(awaitCompilerIdle())
      val setupS = (System.currentTimeMillis() - cfg.t0Ms) / 1000.0
      val rnd = new Random(cfg.seed)
      // the traced run splits its time between an untraced and a traced phase
      val phaseSeconds = if (cfg.trace) cfg.seconds / 2 else cfg.seconds
      val rounds = math.max(1, math.round(phaseSeconds / wl.roundSeconds).toInt)
      val plain = measured(wl, rounds, rnd, new Tracer(false))
      val (metrics, phases) =
        if (!cfg.trace) {
          val heapMb = liveHeapMb()
          val (_, tail) = Stats.tail(plain.reads.toSeq)
          (Seq(
            "setup_s" -> setupS,
            "query_p50_ms" -> Stats.median(plain.reads.toSeq),
            "query_tail_ms" -> tail,
            "throughput_ops_s" -> plain.throughput,
            "heap_live_mb" -> heapMb), Seq(plain))
        } else {
          val tracer = new Tracer(true)
          val traced = measured(wl, rounds, rnd, tracer)
          val layer = mutable.LinkedHashMap[String, Double]()
          Metrics.PerLayer.foreach(m => layer(m.name) = 0.0)
          def put(m: Map[String, Double]): Unit = m.foreach { case (k, v) =>
            require(layer.contains(k), s"metric $k is not in the catalogue"); layer(k) = v
          }
          put(endToEndLayer(traced))
          layer("trace.overhead_ms") =
            Stats.median(traced.reads.toSeq) - Stats.median(plain.reads.toSeq)
          put(wl.layerMetrics(tracer, traced))
          put(wl.probes())
          put(wl.finish())
          (layer.toSeq, Seq(plain, traced))
        }
      val attempted = phases.map(_.attempted).sum
      val failed = phases.map(_.failed).sum
      val (tailP, _) = Stats.tail(plain.reads.toSeq)
      val prov = mutable.LinkedHashMap[String, Any](
        "workload" -> cfg.workload,
        "seed" -> cfg.seed,
        "seconds" -> cfg.seconds,
        "trace" -> cfg.trace,
        "source_sha" -> cfg.sourceSha,
        "nproc" -> Runtime.getRuntime.availableProcessors(),
        "sf" -> cfg.sf,
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
        "spark_version" -> spark.version,
        "spark_master" -> spark.sparkContext.master,
        "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
        "broadcast_join_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "clients" -> 1,
        "rounds_per_phase" -> rounds,
        "read_samples" -> plain.reads.size,
        "write_samples" -> plain.writes.size,
        "query_tail_percentile" -> tailP,
        "write_tail_percentile" -> Stats.tailPercentile(plain.writes.size),
        "measured_s" -> plain.wallNs / 1e9,
        "read_p50_ms_by_query" -> plain.readsById.map { case (id, xs) => id -> Stats.median(xs.toSeq) },
      ) ++ wl.provenance
      Result(failed == 0, attempted, failed, metrics, prov)
    } finally spark.stop()
  }

  private def measured(wl: Workload, rounds: Int, rnd: Random, t: Tracer): Outcomes = {
    val out = new Outcomes
    val t0 = System.nanoTime()
    wl.measure(rounds, rnd, t, out)
    out.wallNs = System.nanoTime() - t0
    require(out.reads.nonEmpty, s"no read succeeded (${out.failed} of ${out.attempted} operations failed)")
    out
  }

  /** End-to-end figures that only some workloads have, reported from the
    * traced run as per-layer metrics (0 where the workload has none). */
  private def endToEndLayer(o: Outcomes): Map[String, Double] = {
    val w = o.writes.toSeq
    Map(
      "write_p50_ms" -> (if (w.isEmpty) 0.0 else Stats.median(w)),
      "write_tail_ms" -> (if (w.isEmpty) 0.0 else Stats.tail(w)._2),
      "failed_frac" -> o.failed.toDouble / o.attempted)
  }

  /** Waits, at most `maxMs`, until the JIT compiler has been idle for
    * `quietMs`, so compilations the warm-up queued do not compete with the
    * first timed operations. */
  def awaitCompilerIdle(quietMs: Long = 500, maxMs: Long = 5000): Unit = {
    val jit = ManagementFactory.getCompilationMXBean
    if (jit != null && jit.isCompilationTimeMonitoringSupported) {
      val deadline = System.nanoTime() + maxMs * 1000000
      var last = jit.getTotalCompilationTime
      var quietSince = System.nanoTime()
      while (System.nanoTime() - quietSince < quietMs * 1000000 && System.nanoTime() < deadline) {
        Thread.sleep(100)
        val now = jit.getTotalCompilationTime
        if (now != last) { last = now; quietSince = System.nanoTime() }
      }
    }
  }

  /** Used heap after full collections, in MB. Spark's context cleaner
    * frees shuffle and broadcast state only after a collection has found it
    * unreachable, so collect, let it run, and collect again. */
  def liveHeapMb(): Double = {
    (1 to 3).foreach { _ => System.gc(); Thread.sleep(300) }
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  /** Runs `f` over `items` on `threads` threads (set-up work only). */
  def parallel[A, B](items: Seq[A], threads: Int)(f: A => B): Seq[B] = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(threads)
    try {
      val futures = items.map(a => pool.submit(new java.util.concurrent.Callable[B] { def call(): B = f(a) }))
      futures.map(_.get())
    } finally pool.shutdown()
  }
}
