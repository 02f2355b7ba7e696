package perfbench

import java.io.File

import scala.util.Random
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core.HiveOptimizer
import repro.llap.{ChunkCache, ChunkKey, ColumnVec, IoElevator, LlapIo, LlapTableProvider, LlapTables, MetaCache, OrcLite}
import repro.tpcds.{DsQuery, TpcDsLite, TpcDsQueries}

/** `tpcds_warm` / `tpcds_cold`: the 20 TPC-DS-lite queries over OrcLite
  * tables read through the LLAP DSv2 provider (`llap.enabled=true`) and
  * optimized by `HiveOptimizer(spark, None)`, Figure 7's "v3.1" path.
  *
  * Warm: the chunk cache holds the whole working set, filled in set-up.
  * Cold: the cache is set to a quarter of the working set that one
  * unbounded pass leaves in it, so every query misses, decodes and evicts.
  */
final class TpcdsWorkload(spark: SparkSession, sf: Double, cold: Boolean, work: File)
    extends Workload {

  /** Large enough for the whole working set at the scale factors used. */
  val WarmCacheBytes: Long = 1L << 30
  /** The DSv2 provider reads one file per task. Two files per core keep a
    * scan stage from waiting on one core slowed by the host. */
  val FilesPerTable = 8
  /** One round of the 20 queries on `tpcds_cold` took 15 s. */
  val roundSeconds = 15.0

  private val queries: Seq[DsQuery] = TpcDsQueries.all
  private val nproc = Runtime.getRuntime.availableProcessors()
  private var tables: Seq[(String, File)] = Seq.empty
  private var refs: Map[String, Answers.Canon] = Map.empty
  private lazy val optimizer = new HiveOptimizer(spark, None)
  private var workingSetBytes = 0L
  private var cacheBytes = 0L

  def setup(): Unit = {
    LlapIo.configure(WarmCacheBytes)
    val root = new File(work, "tpcds")
    tables = Bench.phase("ingest")(Bench.parallel(TpcDsLite.all(spark, sf).toSeq.sortBy(_._1), nproc) {
      case (name, df) =>
        val dir = new File(root, name)
        LlapTables.writeTable(df, dir, numFiles = FilesPerTable)
        name -> dir
    })
    tables.foreach { case (name, dir) =>
      LlapTables.read(spark, dir, llapEnabled = true).createOrReplaceTempView(name)
    }
    refs = Bench.phase("reference answers")(Reference.answers(
      TpcDsLite.all(spark, sf), new File(work, "reference"), queries.map(q => q.id -> q.sql)))
    // warm-up: JIT, code generation and cache fill on the measured path
    // (Answers.check reports any wrong answer)
    Bench.phase("warm-up")(Bench.parallel(queries, nproc)(q =>
      Answers.check(q.id, Answers.canon(optimizer.optimize(spark.sql(q.sql)).df.collect().toSeq), refs(q.id))))
    spark.catalog.clearCache()
    workingSetBytes = LlapIo.cache.usedBytes
    cacheBytes = if (cold) workingSetBytes / 4 else WarmCacheBytes
    if (cold) LlapIo.configure(cacheBytes)
  }

  /** Each round runs the queries in their fixed order from a start the
    * seed draws. A query's neighbours, and so the cache state it meets,
    * stay the same across seeds. */
  def measure(rounds: Int, rnd: Random, t: Tracer, out: Outcomes): Unit =
    (1 to rounds).foreach { _ =>
      val start = rnd.nextInt(queries.size)
      (queries.drop(start) ++ queries.take(start)).foreach(q => runQuery(q, t, out))
    }

  private def runQuery(q: DsQuery, t: Tracer, out: Outcomes): Unit = {
    val t0 = System.nanoTime()
    val rows = try Some(t.span("query") {
      // parsing and analysis count as the query's self time
      val df = spark.sql(q.sql)
      val opt = t.span("core.optimize")(optimizer.optimize(df))
      t.span("spark.plan")(opt.df.queryExecution.executedPlan)
      if (t.enabled) {
        t.count("core.shared_subplans", opt.rewrites.collect {
          case r if r.startsWith("shared-work:") => r.stripPrefix("shared-work:").toDouble
        }.sum)
        val before = llapCounters()
        val r = t.span("spark.exec")(opt.df.collect())
        llapCounters().zip(before).zip(CounterNames).foreach { case ((a, b), n) => t.count(n, (a - b).toDouble) }
        r
      } else opt.df.collect()
    }) catch {
      case NonFatal(e) =>
        Console.err.println(s"[perfbench] ${q.id} failed: $e")
        None
    }
    val ms = (System.nanoTime() - t0) / 1e6
    out.read(ms, rows.exists(r => Answers.check(q.id, Answers.canon(r.toSeq), refs(q.id))), q.id)
    // every query runs on its own: shared-work subplans persisted by the
    // optimizer must not answer later queries
    if (!spark.sparkContext.getPersistentRDDs.isEmpty) t.count("core.leftover_persists", 1)
    spark.catalog.clearCache()
  }

  private val CounterNames = Seq("llap.cache_hits", "llap.cache_misses", "llap.cache_evictions",
    "llap.row_groups_read", "llap.row_groups_skipped")

  private def llapCounters(): Seq[Long] = {
    val c = LlapIo.cache; val m = LlapIo.elevator.metrics
    Seq(c.hits.get, c.misses.get, c.evictions.get, m.rowGroupsRead.get, m.rowGroupsSkipped.get)
  }

  def layerMetrics(t: Tracer, out: Outcomes): Map[String, Double] = {
    val n = out.attempted.toDouble
    def per(name: String) = t.counter(name) / n
    val hits = t.counter("llap.cache_hits"); val misses = t.counter("llap.cache_misses")
    val read = t.counter("llap.row_groups_read"); val skipped = t.counter("llap.row_groups_skipped")
    Map(
      "query.self_ms" -> t.meanSelfMs("query"),
      "spark.plan_ms" -> t.meanMs("spark.plan"),
      "spark.exec_ms" -> t.meanMs("spark.exec"),
      // with no MV catalogue the optimizer runs shared work only
      "core.shared_work_ms" -> t.meanMs("core.optimize"),
      "core.shared_subplans" -> per("core.shared_subplans"),
      "core.leftover_persists" -> t.counter("core.leftover_persists"),
      "llap.cache_used_mb" -> LlapIo.cache.usedBytes / 1e6,
      "llap.cache_hit_ratio" -> ratio(hits, hits + misses),
      "llap.rg_skip_ratio" -> ratio(skipped, read + skipped),
    ) ++ CounterNames.map(c => c -> per(c))
  }

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  // ------------------------------------------------------------- probes

  override def probes(): Map[String, Double] = {
    val files = tables.flatMap { case (_, dir) => LlapTableProvider.listFiles(dir) }
    val metas = files.map(OrcLite.readMeta)
    val readMetaMs = medianOf(3)(timeMs(files.foreach(OrcLite.readMeta))) / files.size

    // decode every chunk of every file
    val chunkRefs = for (m <- metas; rg <- 0 until m.rowGroups; c <- m.schema.indices) yield (m, rg, c)
    val encodedBytes = chunkRefs.map { case (m, rg, c) => m.index(rg)(c).length.toLong }.sum
    var chunks: Seq[(ChunkKey, ColumnVec)] = Seq.empty
    val decodeMs = medianOf(3)(timeMs {
      chunks = chunkRefs.map { case (m, rg, c) => ChunkKey(m.fileKey, rg, c) -> OrcLite.readChunk(m, rg, c) }
    })
    val ws = chunks.map(_._2.sizeBytes).sum

    val getNs = {
      val cache = new ChunkCache(2 * ws)
      chunks.foreach { case (k, v) => cache.put(k, v) }
      val keys = chunks.map(_._1).toArray
      val passes = math.max(1, 200000 / keys.length)
      medianOf(3)(timeMs((0 until passes).foreach(_ => keys.foreach(cache.get)))) * 1e6 / (passes * keys.length)
    }
    def putNs(capacity: Long): Double = medianOf(3) {
      val cache = new ChunkCache(capacity)
      timeMs(chunks.foreach { case (k, v) => cache.put(k, v) })
    } * 1e6 / chunks.size

    val totalRows = metas.map(_.totalRows).sum.toDouble
    def scanAll(el: IoElevator, useCache: Boolean): Unit = files.zip(metas).foreach { case (f, m) =>
      el.scan(f, m.schema.fieldNames.toSeq, useCache = useCache).foreach(b => require(b.numRows >= 0))
    }
    val elevator = new IoElevator(new ChunkCache(2 * ws), new MetaCache)
    scanAll(elevator, useCache = true)
    val warmMs = medianOf(3)(timeMs(scanAll(elevator, useCache = true)))
    val coldMs = medianOf(3)(timeMs(scanAll(elevator, useCache = false)))

    // the hit path: the measured phase is over, so the whole working set
    // may now be cached (noopScan's untimed first scan fills the cache)
    LlapIo.configure(WarmCacheBytes)
    val (factName, factDir) = tables.find(_._1 == "store_sales").get
    val factRows = TpcDsLite.storeSales(spark, sf).count().toDouble
    def noopScan(df: => org.apache.spark.sql.DataFrame): Double = {
      df.write.format("noop").mode("overwrite").save()
      medianOf(3)(timeMs(df.write.format("noop").mode("overwrite").save()))
    }
    val dsv2Ms = noopScan(LlapTables.read(spark, factDir, llapEnabled = true))
    // the reference answers' Parquet copy of the same rows
    val parquetDir = new File(new File(work, "reference"), factName)
    val parquetMs = noopScan(spark.read.parquet(parquetDir.getAbsolutePath))

    federationProbe() ++ Map(
      "llap.read_meta_ms" -> readMetaMs,
      "llap.decode_mb_s" -> encodedBytes / 1e6 / (decodeMs / 1e3),
      "llap.cache_get_ns" -> getNs,
      "llap.cache_put_ns_fit" -> putNs(2 * ws),
      "llap.cache_put_ns_oversub" -> putNs(ws / 2),
      "llap.elevator_rows_s_warm" -> totalRows / (warmMs / 1e3),
      "llap.elevator_rows_s_cold" -> totalRows / (coldMs / 1e3),
      "llap.dsv2_rows_s" -> factRows / (dsv2Ms / 1e3),
      "ref.parquet_rows_s" -> factRows / (parquetMs / 1e3),
    )
  }

  /** MV rewriting and Druid federation run on no workload of BENCHMARK.json,
    * so the traced TPC-DS run times one round of `ssb_druid_mv` (in a
    * session of its own) and keeps its `core.mv_*` and `federation.*`
    * figures. */
  private def federationProbe(): Map[String, Double] = {
    val ssb = new SsbDruidWorkload(spark.newSession(), sf, new File(work, "ssb-probe"))
    ssb.setup()
    val t = new Tracer(true)
    val out = new Outcomes
    ssb.measure(1, new Random(0), t, out)
    if (out.failed > 0) Console.err.println(s"[perfbench] federation probe: ${out.failed} of ${out.attempted} queries failed")
    ssb.layerMetrics(t, out).filter { case (k, _) => k.startsWith("core.mv_") || k.startsWith("federation.") }
  }

  private def timeMs(body: => Unit): Double = {
    val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e6
  }

  private def medianOf(n: Int)(sample: => Double): Double = Stats.median(Seq.fill(n)(sample))

  def provenance: Map[String, Any] = Map(
    "tables" -> tables.map(_._1),
    "files_per_table" -> FilesPerTable,
    "queries" -> queries.map(_.id),
    "optimizer" -> "HiveOptimizer(spark, None)",
    "working_set_bytes" -> workingSetBytes,
    "warm_cache_capacity_bytes" -> WarmCacheBytes,
    "cold_cache_capacity_bytes" -> workingSetBytes / 4,
    "cache_capacity_bytes" -> cacheBytes,
  )
}
