package repro.core

import scala.collection.concurrent.TrieMap

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, SubqueryAlias}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.repro.PlanUtils

/** A registered materialized view: its SPJA definition and the temp view
  * holding the materialized contents ("just semantically enriched tables"). */
final case class MaterializedView(name: String, query: SpjaQuery, sql: String)

/** Registry of source tables and materialized views (HMS-side state). */
final class MvCatalog(spark: SparkSession) {
  private val sources = TrieMap[String, Unit]()
  private val dimensions = TrieMap[String, Unit]()
  private val views = TrieMap[String, MaterializedView]()

  /** Declares a temp view as a rewriting-eligible source table. */
  def registerSource(name: String): Unit = {
    require(spark.catalog.tableExists(name), s"no such view/table: $name")
    sources.put(name, ()): Unit
  }

  /** Declares a source as a PK-complete dimension: joining it through its
    * key neither drops nor duplicates fact rows. This is the integrity-
    * constraint information (PK/FK/NOT NULL) the rewriting algorithm
    * exploits (§4.4) to use an MV that joins *more* tables than the query. */
  def registerDimension(name: String): Unit = {
    registerSource(name)
    dimensions.put(name, ()): Unit
  }

  def isKeyPreservingDimension(name: String): Boolean = dimensions.contains(name)

  def sourceNames: Set[String] = sources.keySet.toSet

  /** CREATE MATERIALIZED VIEW name AS sql — materializes the contents into
    * a cached temp view and registers the SPJA definition for rewriting.
    * Creating a view again is its full REBUILD. The old contents are
    * uncached first: replacing a temp view leaves the contents it held
    * cached, and a plan equal to theirs would read them back. */
  def createMaterializedView(name: String, sql: String): MaterializedView = {
    drop(name)
    val df = spark.sql(sql)
    df.cache().createTempView(name)
    df.count() // force materialization
    try registerExternalMaterializedView(name, sql)
    catch { case e: IllegalArgumentException => drop(name); throw e }
  }

  /** Registers an MV whose contents are stored in an *external* system
    * (§6): the temp view `name` (e.g. a Druid-backed scan) must already
    * exist; only the SPJA definition is recorded for rewriting. This is
    * the "materialized view stored in Druid" path of the federation
    * experiment. */
  def registerExternalMaterializedView(name: String, sql: String): MaterializedView = {
    require(spark.catalog.tableExists(name), s"external MV view missing: $name")
    val q = Spja.extract(spark.sql(sql).queryExecution.analyzed, sourceNames).getOrElse(
      throw new IllegalArgumentException(
        s"materialized view $name is not a supported SPJA expression"))
    val mv = MaterializedView(name, q, sql)
    views.put(name, mv)
    mv
  }

  def drop(name: String): Unit = {
    views.remove(name)
    spark.catalog.dropTempView(name): Unit
  }

  def list: Seq[MaterializedView] = views.values.toSeq.sortBy(_.name)
}

/** Automatic query rewriting over materialized views (§4.4).
  *
  * Produces *fully contained* rewrites (the query reads only the MV) and
  * *partially contained* rewrites (a UNION ALL of the MV and the missing
  * slice recomputed from the source tables — Figure 4c). Containment is
  * decided over the SPJA normal form with per-column domain implication.
  */
object MvRewriter {

  sealed trait Kind
  case object FullContainment extends Kind
  case object PartialContainment extends Kind

  final case class Rewrite(df: DataFrame, view: String, kind: Kind)

  /** Attempts to rewrite `df` over any registered MV; first match wins
    * (cost-based selection among multiple candidates is approximated by
    * preferring full containment over partial). ORDER BY / LIMIT on top of
    * the SPJA core are peeled off and re-applied to the rewritten plan. */
  def rewrite(spark: SparkSession, df: DataFrame, catalog: MvCatalog): Option[Rewrite] = {
    val peeled = Spja.peel(df.queryExecution.analyzed)
    val q = Spja.extract(peeled.core, catalog.sourceNames).getOrElse(return None)
    val candidates = catalog.list
    candidates.flatMap(v => tryFull(spark, q, v, catalog)
        .map(d => Rewrite(peeled.reapply(d), v.name, FullContainment)))
      .headOption
      .orElse(candidates.flatMap(v => tryPartial(spark, q, peeled.core, v, catalog)
        .map(d => Rewrite(peeled.reapply(d), v.name, PartialContainment))).headOption)
  }

  // ------------------------------------------------------------------ full

  private def tryFull(spark: SparkSession, q: SpjaQuery, v: MaterializedView,
                      catalog: MvCatalog): Option[DataFrame] = {
    val vq = v.query
    if (q.isAggregate && q.aggs.isEmpty) return None // GROUP BY without aggregates
    // The view joins the query's tables along the query's joins; with
    // constraint information it may also join key-preserving dimensions
    // the query does not use.
    if (!q.tables.subsetOf(vq.tables) || !q.joins.subsetOf(vq.joins) ||
        !(vq.tables -- q.tables).forall(catalog.isKeyPreservingDimension)) return None
    val (qD, vD) = (q.doms, vq.doms)

    // every view constraint must be implied by the query
    vD.foreach { case (c, vd) =>
      val qd = qD.getOrElse(c, return None)
      if (!qd.implies(vd)) return None
    }

    // compensation: query constraints tighter than (or absent from) the view
    val compCols = qD.keys.filter(c => !vD.get(c).contains(qD(c))).toSeq.sorted
    def mvName(c: String): Option[String] = vq.outCols.find(_._1 == c).map(_._2)
    val comp: Seq[Column] = compCols.map { c =>
      val n = mvName(c).getOrElse(return None)
      qD(c).toColumn(n)
    }

    val mvDf = spark.table(v.name)
    val filtered = comp.foldLeft(mvDf)(_.filter(_))

    (q.isAggregate, vq.isAggregate) match {
      case (false, false) =>
        // SPJ over SPJ view: project the requested columns
        Some(filtered.select(q.outColumns(c => mvName(c).getOrElse(return None)): _*))

      case (true, false) =>
        // aggregate over an SPJ (e.g. denormalized) view: group and
        // aggregate directly on the view. Aggregate args reference source
        // column names, so the view must expose them under the same names.
        val groupCols = q.groupBy.get.distinct
        groupCols.foreach(c => if (!mvName(c).contains(c)) return None)
        q.aggs.foreach(_.argCols.foreach(c => if (!mvName(c).contains(c)) return None))
        Some(evaluate(filtered, q))

      case (true, true) =>
        // SPJA over SPJA view: rollup-derive each aggregate
        val groupCols = q.groupBy.get.distinct
        val mvGroup = groupCols.map(c => mvName(c).getOrElse(return None))
        val derived = q.aggs.map { a =>
          val va = vq.aggs.find(va => va.func == a.func && va.arg == a.arg).getOrElse(return None)
          a.rollup(col(va.outName)).as(a.outName)
        }
        Some(Spja.aggregate(filtered, mvGroup, derived)
          .select(q.outColumns(c => mvName(c).get): _*))

      case (false, true) => None // SPJ query cannot read an aggregated view
    }
  }

  /** Aggregate computed directly from source-named columns. */
  private def directAgg(a: AggSpec): Column = a.func match {
    case "sum"        => sum(expr(a.arg.get))
    case "min"        => min(expr(a.arg.get))
    case "max"        => max(expr(a.arg.get))
    case "count"      => count(expr(a.arg.get))
    case "count_star" => count(lit(1))
  }

  /** The query over a frame with source-named columns: its aggregates when
    * it has any, then its output projection. */
  private def evaluate(df: DataFrame, q: SpjaQuery): DataFrame = {
    val agged =
      if (!q.isAggregate) df
      else Spja.aggregate(df, q.groupBy.get.distinct,
        q.aggs.map(a => directAgg(a).as(a.outName)))
    agged.select(q.outColumns(identity): _*)
  }

  // --------------------------------------------------------------- partial

  /** `core` is the analyzed plan `q` was extracted from. */
  private def tryPartial(spark: SparkSession, q: SpjaQuery, core: LogicalPlan,
                         v: MaterializedView, catalog: MvCatalog): Option[DataFrame] = {
    val vq = v.query
    if (q.tables != vq.tables || q.joins != vq.joins) return None
    val (qD, vD) = (q.doms, vq.doms)

    // exactly one failing column, numeric on both sides
    val failing = vD.keys.filter { c =>
      !qD.get(c).exists(_.implies(vD(c)))
    }.toSeq
    if (failing.size != 1) return None
    val c = failing.head
    val qd = qD.getOrElse(c, Dom.unconstrainedNum) match {
      case n: NumDom => n; case _ => return None
    }
    val vd = vD(c) match { case n: NumDom => n; case _ => return None }

    val missing = qd.subtract(vd)
    if (missing.isEmpty) return None

    // MV part: query restricted to the view's region on the split column
    val part1 = tryFull(spark, q.copy(doms = qD.updated(c, qd.intersect(vd))), v, catalog)
      .getOrElse(return None)

    // source part: the query's own plan with the source table that holds
    // the split column restricted to the missing region(s); its joins,
    // aggregate and projection stay as they are
    val leaf = core.collectFirst {
      case s: SubqueryAlias
          if catalog.sourceNames(s.identifier.name) && s.output.exists(_.name == c) => s
    }.getOrElse(return None)
    val missingFilter = missing.map(_.toColumn(c)).reduce(_ || _)
    val slice = PlanUtils.ofRows(spark, leaf).filter(missingFilter).queryExecution.analyzed
    val part2 = PlanUtils.ofRows(spark, core.transformUp { case s if s eq leaf => slice })

    // combine (Figure 4c): UNION ALL then re-aggregate
    val unioned = part1.unionByName(part2)
    Some(if (q.isAggregate) q.reaggregate(unioned) else unioned)
  }
}
