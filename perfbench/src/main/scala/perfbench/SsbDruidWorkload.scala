package perfbench

import java.io.File

import scala.util.Random
import scala.util.control.NonFatal

import org.apache.spark.sql.{Row, SparkSession}

import repro.core.{MvCatalog, MvRewriter}
import repro.federation.druid.{DruidFederation, DruidQuery, DruidSim}
import repro.ssb.{SsbLite, SsbQueries, SsbQuery}

/** `ssb_druid_mv`: Figure 8's "Hive/Druid" column. The 13 SSB queries are
  * rewritten by `MvRewriter` onto the denormalized MV stored in `DruidSim`
  * and then pushed down by `DruidFederation`. A query that is not fully
  * rewritten or not pushed did not run this path: it counts as failed and
  * is not timed on another one. */
final class SsbDruidWorkload(spark: SparkSession, sf: Double, work: File) extends Workload {

  val DataSource = "ssb_flat_ds"
  val MvTable = "ssb_flat_druid"
  val Segments = 32
  /** One round of the 13 queries took 2.6 s. */
  val roundSeconds = 2.6

  private val queries: Seq[SsbQuery] = SsbQueries.all
  private val nproc = Runtime.getRuntime.availableProcessors()
  private val sim = new DruidSim
  private var fed: DruidFederation = _
  private var catalog: MvCatalog = _
  private var refs: Map[String, Answers.Canon] = Map.empty
  private var ingestS = 0.0

  def setup(): Unit = {
    SsbLite.registerViews(spark, sf)
    val t0 = System.nanoTime()
    sim.createDataSource(DataSource, spark.sql(SsbLite.DenormalizedMvSql),
      segmentKey = Some("lo_orderdate"), targetSegments = Segments)
    ingestS = (System.nanoTime() - t0) / 1e9
    Console.err.println(f"[perfbench] druid ingest: $ingestS%.2f s")
    fed = new DruidFederation(spark, sim)
    fed.registerExternalTable(MvTable, DataSource)
    catalog = new MvCatalog(spark)
    catalog.registerSource("lineorder")
    Seq("date", "customer", "supplier", "part").foreach(catalog.registerDimension)
    catalog.registerExternalMaterializedView(MvTable, SsbLite.DenormalizedMvSql)
    refs = Bench.phase("reference answers")(Reference.answers(
      SsbLite.all(spark, sf), new File(work, "reference"), queries.map(q => q.id -> q.sql)))
    // warm-up: JIT on the measured path (Answers.check reports any wrong answer)
    Bench.phase("warm-up")(Bench.parallel(queries, nproc)(q =>
      answer(q, new Tracer(false)).foreach(a => Answers.check(q.id, Answers.canon(a._1), refs(q.id)))))
  }

  def measure(rounds: Int, rnd: Random, t: Tracer, out: Outcomes): Unit =
    (1 to rounds).foreach(_ => rnd.shuffle(queries).foreach { q =>
      val t0 = System.nanoTime()
      val got = answer(q, t)
      val ms = (System.nanoTime() - t0) / 1e6
      out.read(ms, got.exists { case (rows, _) => Answers.check(q.id, Answers.canon(rows), refs(q.id)) }, q.id)
      if (t.enabled) got.foreach { case (_, pushed) =>
        // replay of the pushed query alone, outside the timed operation
        t.span("federation.druid_execute")(sim.execute(pushed))
        t.count("federation.segments_scanned", sim.lastSegmentsScanned)
        t.count("federation.segments_pruned", sim.lastSegmentsPruned)
      }
    })

  /** Rewrites, pushes and runs `q`: its answer and the pushed Druid query,
    * or None when the query left the path. */
  private def answer(q: SsbQuery, t: Tracer): Option[(Seq[Row], DruidQuery)] =
    try t.span("query") {
      // parsing and analysis count as the query's self time
      val df = spark.sql(q.sql)
      val rw = t.span("core.mv_rewrite")(MvRewriter.rewrite(spark, df, catalog))
        .filter(_.kind == MvRewriter.FullContainment)
      t.count("core.mv_full_rewrites", rw.size)
      val p = rw.flatMap(r => t.span("federation.pushdown")(fed.pushdown(r.df)))
      t.count("federation.pushed", p.size)
      p.map { p =>
        t.span("spark.plan")(p.df.queryExecution.executedPlan)
        (t.span("spark.exec")(p.df.collect()).toSeq, p.query)
      }
    } catch {
      case NonFatal(e) =>
        Console.err.println(s"[perfbench] ${q.id} failed: $e")
        None
    }

  def layerMetrics(t: Tracer, out: Outcomes): Map[String, Double] = {
    val n = out.attempted.toDouble
    val scanned = t.counter("federation.segments_scanned")
    val pruned = t.counter("federation.segments_pruned")
    Map(
      "query.self_ms" -> t.meanSelfMs("query"),
      "spark.plan_ms" -> t.meanMs("spark.plan"),
      "spark.exec_ms" -> t.meanMs("spark.exec"),
      "core.mv_rewrite_ms" -> t.meanMs("core.mv_rewrite"),
      "core.mv_full_rewrites" -> t.counter("core.mv_full_rewrites") / n,
      "federation.pushdown_ms" -> t.meanMs("federation.pushdown"),
      "federation.pushed" -> t.counter("federation.pushed") / n,
      "federation.druid_execute_ms" -> t.meanMs("federation.druid_execute"),
      "federation.segments_scanned" -> scanned / n,
      "federation.segments_pruned" -> pruned / n,
      "federation.prune_ratio" -> (if (scanned + pruned == 0) 0.0 else pruned / (scanned + pruned)),
      "federation.ingest_s" -> ingestS,
    )
  }

  def provenance: Map[String, Any] = Map(
    "queries" -> queries.map(_.id),
    "druid_segments" -> Segments,
    "druid_segment_key" -> "lo_orderdate",
    "ingest_s" -> ingestS,
  )
}
