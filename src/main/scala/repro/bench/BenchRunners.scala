package repro.bench

import java.io.File
import java.nio.file.Files

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.internal.SQLConf

import repro.core.{HiveOptimizer, MvCatalog, MvRewriter, SharedWork}
import repro.federation.druid.{DruidFederation, DruidSim}
import repro.llap.{LlapIo, LlapTables}
import repro.ssb.{SsbLite, SsbQueries}
import repro.tpcds.{DsQuery, TpcDsLite, TpcDsQueries}
import repro.util.Timing

/** Benchmark harnesses reproducing the paper's evaluation (§7).
  *
  * The LLAP daemon of §5.1 is played by Spark's executors, which persist
  * across queries, and by the process-wide [[LlapIo]] caches. Container
  * mode is defined once, in [[containerMode]]: scans read through
  * `llap.enabled=false` views, which bypass the chunk and metadata caches,
  * and each query is charged `ContainerAllocDelayMs`, the YARN container
  * allocation round-trip (the paper calls it "a critical bottleneck for low
  * latency queries"). The delay is modelled, not slept: [[QueryTime]] keeps
  * it apart from the measured milliseconds. Real YARN allocations take
  * seconds; our queries are ~100x smaller than the paper's, so the delay is
  * scaled to 500 ms. Documented in EXPERIMENTS.md.
  */
object BenchRunners {

  val ContainerAllocDelayMs: Long = 500
  val CacheBytes: Long = 512L << 20

  /** Clears all cross-bench state: Spark's cache manager and the LLAP
    * daemon caches, so suites do not interfere when run back to back. */
  def resetState(spark: SparkSession): Unit = {
    spark.catalog.clearCache()
    LlapIo.configure(CacheBytes)
  }

  /** One query's time: `measuredMs` of wall clock plus `modelledMs` of
    * modelled start-up cost; `millis` is their sum. */
  final case class QueryTime(id: String, measuredMs: Long, modelledMs: Long = 0) {
    def millis: Long = measuredMs + modelledMs
  }
  final case class ModeResult(mode: String, times: Seq[QueryTime]) {
    def totalMs: Long = times.map(_.millis).sum
    def measuredMs: Long = times.map(_.measuredMs).sum
    def modelled: Boolean = times.exists(_.modelledMs > 0)
  }

  /** Temporarily sets session confs, restoring them afterwards. */
  private def withConf[A](spark: SparkSession, pairs: (String, String)*)(body: => A): A = {
    val olds = pairs.map { case (k, _) => k -> spark.conf.getOption(k) }
    pairs.foreach { case (k, v) => spark.conf.set(k, v) }
    try body
    finally olds.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None)    => spark.conf.unset(k)
    }
  }

  /** Spark natively reuses identical exchanges/subqueries; the pre-shared-
    * work baseline ("v1.2", and the shared-work OFF measurement) must not
    * silently benefit from it. */
  private[bench] val NoReuse: Seq[(String, String)] = Seq(
    SQLConf.EXCHANGE_REUSE_ENABLED.key -> "false",
    SQLConf.SUBQUERY_REUSE_ENABLED.key -> "false")

  // -------------------------------------------------------------- Table 1

  final case class Table1Result(container: ModeResult, llap: ModeResult) {
    def speedup: Double = container.totalMs.toDouble / llap.totalMs
    def measuredSpeedup: Double = container.measuredMs.toDouble / llap.measuredMs
  }

  /** Table 1: aggregated TPC-DS response time, container vs LLAP. */
  def runTable1(spark: SparkSession, sf: Double): Table1Result = {
    resetState(spark)
    val dirs = writeTpcdsAsOrcLite(spark, sf)
    val container = containerMode(spark, dirs, "container", TpcDsQueries.all)
    val llap = llapMode(spark, dirs, "llap", TpcDsQueries.all)
    Table1Result(container, llap)
  }

  // ------------------------------------------------------------- Figure 7

  final case class Fig7Result(
      v12: ModeResult,  // 16 queries, container mode, no post-2015 optimizer
      v31: ModeResult,  // all 20 queries, LLAP + shared work
      sharedWorkOffMs: Long,     // q88 without shared work (no-reuse baseline)
      sharedWorkOnMs: Long,      // q88 with the shared-work rule
      sharedWorkOffGroups: Long, // row groups read without sharing
      sharedWorkOnGroups: Long) { // row groups read with sharing
    /** Mean over the v1.2 queries of v1.2 / v3.1 time; the measured
      * variant leaves v1.2's modelled start-up cost out. */
    def avgSpeedupCommon: Double = avgSpeedup(_.millis)
    def avgSpeedupCommonMeasured: Double = avgSpeedup(_.measuredMs)
    private def avgSpeedup(v12Ms: QueryTime => Long): Double = {
      val pairs = v12.times.map(t => v12Ms(t).toDouble / v31.times.find(_.id == t.id).get.millis)
      pairs.sum / pairs.size
    }
    def sharedWorkSpeedup: Double = sharedWorkOffMs.toDouble / sharedWorkOnMs
  }

  /** Figure 7 (as a table): "Hive v1.2" vs "Hive v3.1". */
  def runFig7(spark: SparkSession, sf: Double): Fig7Result = {
    resetState(spark)
    val dirs = writeTpcdsAsOrcLite(spark, sf)

    // v1.2: container mode, reduced SQL surface, no work sharing at all
    val v12 = withConf(spark, NoReuse: _*) {
      containerMode(spark, dirs, "v1.2", TpcDsQueries.v12Supported)
    }

    // v3.1: LLAP mode + multi-stage optimizer (shared work enabled)
    val optimizer = new HiveOptimizer(spark, None)
    val v31 = llapMode(spark, dirs, "v3.1", TpcDsQueries.all, optimizer.optimize(_).df)

    // isolate the shared-work contribution on the q88-style query over the
    // container-mode views: every scan pays IO, so sharing n-1 of the n
    // repeated subexpressions is visible (with warm caches the repeated
    // scans are nearly free and the effect vanishes). Wall-clock at
    // this scale is noisy, so the elevator's row-groups-read counter is
    // also captured — a deterministic measure of the work actually avoided.
    registerViews(spark, dirs, llap = false)
    val q88 = TpcDsQueries.all.find(_.sharedWorkQuery).get
    val m = LlapIo.elevator.metrics
    val (offMs, offGroups) = withConf(spark, NoReuse: _*) {
      spark.sql(q88.sql).collect() // JIT warm
      m.reset()
      val t = Timing.medianMillis(3)(spark.sql(q88.sql).collect(): Unit)
      (t, m.rowGroupsRead.get / 3)
    }
    val (onMs, onGroups) = withConf(spark, NoReuse: _*) {
      SharedWork.optimize(spark, spark.sql(q88.sql)).df.collect() // JIT warm
      m.reset()
      val t = Timing.medianMillis(3)(SharedWork.optimize(spark, spark.sql(q88.sql)).df.collect(): Unit)
      (t, m.rowGroupsRead.get / 3)
    }

    Fig7Result(v12, v31, offMs, onMs, offGroups, onGroups)
  }

  // ------------------------------------------------------------- Figure 8

  final case class Fig8Result(
      native: ModeResult, druid: ModeResult, pushedQueries: Int,
      nativeFullRewrites: Int) {
    def speedup: Double = native.totalMs.toDouble / druid.totalMs
  }

  /** Figure 8 (as a table): SSB over a denormalized MV stored natively vs
    * stored in Druid with computation pushdown. */
  def runFig8(spark: SparkSession, sf: Double): Fig8Result = {
    resetState(spark)
    SsbLite.registerViews(spark, sf)

    // variant A: MV stored natively in Hive (cached Spark table)
    val catNative = new MvCatalog(spark)
    catNative.registerSource("lineorder")
    Seq("date", "customer", "supplier", "part").foreach(catNative.registerDimension)
    catNative.createMaterializedView("ssb_flat", SsbLite.DenormalizedMvSql)
    var fullRewrites = 0
    def rewriteNative(q: repro.ssb.SsbQuery): org.apache.spark.sql.DataFrame = {
      val rw = MvRewriter.rewrite(spark, spark.sql(q.sql), catNative).get
      if (rw.kind == MvRewriter.FullContainment) fullRewrites += 1
      rw.df
    }
    SsbQueries.all.foreach(q => rewriteNative(q).collect()) // warm
    fullRewrites = 0
    val native = ModeResult("hive-native-mv", SsbQueries.all.map { q =>
      QueryTime(q.id, Timing.timed(rewriteNative(q).collect())._2)
    })

    // variant B: the same MV stored in Druid; queries rewritten onto it and
    // then pushed down as native Druid queries
    val sim = new DruidSim
    sim.createDataSource("ssb_flat_ds", spark.table("ssb_flat"),
      segmentKey = Some("lo_orderdate"), targetSegments = 32)
    val fed = new DruidFederation(spark, sim)
    fed.registerExternalTable("ssb_flat_druid", "ssb_flat_ds")
    val catDruid = new MvCatalog(spark)
    catDruid.registerSource("lineorder")
    Seq("date", "customer", "supplier", "part").foreach(catDruid.registerDimension)
    catDruid.registerExternalMaterializedView("ssb_flat_druid", SsbLite.DenormalizedMvSql)

    var pushed = 0
    def runDruid(q: repro.ssb.SsbQuery): Long = {
      val rewritten = MvRewriter.rewrite(spark, spark.sql(q.sql), catDruid).get.df
      fed.pushdown(rewritten) match {
        case Some(p) => pushed += 1; Timing.timed(p.df.collect())._2
        case None    => Timing.timed(rewritten.collect())._2
      }
    }
    SsbQueries.all.foreach(runDruid) // warm (JIT)
    pushed = 0
    val druid = ModeResult("hive-druid-mv", SsbQueries.all.map { q =>
      QueryTime(q.id, runDruid(q))
    })
    Fig8Result(native, druid, pushed, fullRewrites)
  }

  // -------------------------------------------------------------- helpers

  private def registerViews(spark: SparkSession, dirs: Seq[(String, File)], llap: Boolean): Unit =
    dirs.foreach { case (t, d) =>
      LlapTables.read(spark, d, llapEnabled = llap).createOrReplaceTempView(t)
    }

  /** Container mode: every scan reads from disk, bypassing the LLAP caches,
    * and every query is charged the modelled container allocation. */
  private def containerMode(spark: SparkSession, dirs: Seq[(String, File)], mode: String,
                            queries: Seq[DsQuery]): ModeResult = {
    registerViews(spark, dirs, llap = false)
    ModeResult(mode, queries.map { q =>
      QueryTime(q.id, Timing.timed(spark.sql(q.sql).collect())._2, ContainerAllocDelayMs)
    })
  }

  /** LLAP mode: persistent daemons with no start-up cost. One untimed pass
    * warms the caches and the JIT, then each query is timed through `plan`. */
  private def llapMode(spark: SparkSession, dirs: Seq[(String, File)], mode: String,
                       queries: Seq[DsQuery], plan: DataFrame => DataFrame = identity): ModeResult = {
    registerViews(spark, dirs, llap = true)
    queries.foreach(q => spark.sql(q.sql).collect())
    ModeResult(mode, queries.map { q =>
      QueryTime(q.id, Timing.timed(plan(spark.sql(q.sql)).collect())._2)
    })
  }

  private def writeTpcdsAsOrcLite(spark: SparkSession, sf: Double): Seq[(String, File)] =
    TpcDsLite.all(spark, sf).toSeq.sortBy(_._1).map { case (name, df) =>
      val dir = Files.createTempDirectory(s"tpcds_$name").toFile
      LlapTables.writeTable(df, dir, numFiles = 4)
      name -> dir
    }

  /** Per-query table with one column per mode. A mode that carries a
    * modelled cost gets a second, measured-only column. */
  def renderMode(title: String, results: Seq[ModeResult]): String = {
    val cols: Seq[(String, ModeResult, QueryTime => Long)] = results.flatMap { r =>
      Seq((s"${r.mode} (ms)", r, (t: QueryTime) => t.millis)) ++
        Option.when(r.modelled)((s"${r.mode} measured (ms)", r, (t: QueryTime) => t.measuredMs))
    }
    val rows = results.head.times.map(_.id).map { id =>
      id +: cols.map { case (_, r, ms) => r.times.find(_.id == id).map(ms(_).toString).getOrElse("-") }
    } :+ ("TOTAL" +: cols.map { case (_, r, ms) => r.times.map(ms).sum.toString })
    Timing.table(title, "query" +: cols.map(_._1), rows)
  }
}
