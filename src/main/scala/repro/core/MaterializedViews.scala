package repro.core

import scala.collection.concurrent.TrieMap

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

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
    * a cached temp view and registers the SPJA definition for rewriting. */
  def createMaterializedView(name: String, sql: String): MaterializedView = {
    val df = spark.sql(sql)
    val q = Spja.extract(df.queryExecution.analyzed, sourceNames).getOrElse(
      throw new IllegalArgumentException(
        s"materialized view $name is not a supported SPJA expression"))
    df.cache().createOrReplaceTempView(name)
    df.count() // force materialization
    val mv = MaterializedView(name, q, sql)
    views.put(name, mv)
    mv
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

  /** Full rebuild (REBUILD statement): rerun the definition. */
  def rebuildFull(name: String): Unit = {
    val mv = views.getOrElse(name, throw new NoSuchElementException(s"no such MV: $name"))
    spark.catalog.dropTempView(name)
    val df = spark.sql(mv.sql)
    df.cache().createOrReplaceTempView(name)
    df.count(): Unit
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
    candidates.flatMap(v => tryFull(spark, q, v, Some(catalog))
        .map(d => Rewrite(peeled.reapply(d), v.name, FullContainment)))
      .headOption
      .orElse(candidates.flatMap(v => tryPartial(spark, q, v)
        .map(d => Rewrite(peeled.reapply(d), v.name, PartialContainment))).headOption)
  }

  // ------------------------------------------------------------------ full

  private[core] def tryFull(spark: SparkSession, q: SpjaQuery, v: MaterializedView,
                            catalog: Option[MvCatalog] = None): Option[DataFrame] = {
    val qD = Dom.ofPreds(q.preds).getOrElse(return None)
    tryFullWithDoms(spark, q, qD, v, catalog)
  }

  private def tryFullWithDoms(spark: SparkSession, q: SpjaQuery,
                              qD: Map[String, Dom], v: MaterializedView,
                              catalog: Option[MvCatalog] = None): Option[DataFrame] = {
    val vq = v.query
    if (q.isAggregate && q.aggs.isEmpty) return None // GROUP BY without aggregates
    // Exact table/join match, or — with constraint information — the view
    // may join additional key-preserving dimensions the query does not use.
    if (q.tables != vq.tables || q.joins != vq.joins) {
      val extraOk = catalog.exists { c =>
        q.tables.subsetOf(vq.tables) &&
          (vq.tables -- q.tables).forall(c.isKeyPreservingDimension) &&
          q.joins.subsetOf(vq.joins)
      }
      if (!extraOk) return None
    }
    val vD = Dom.ofPreds(vq.preds).getOrElse(return None)

    // every view constraint must be implied by the query
    vD.foreach { case (c, vd) =>
      val qd = qD.getOrElse(c, return None)
      if (!qd.implies(vd)) return None
    }

    // compensation: query constraints tighter than (or absent from) the view
    val compCols = qD.keys.filter(c => !vD.get(c).contains(qD(c))).toSeq.sorted
    def mvName(c: String): Option[String] =
      if (vq.isAggregate) vq.groupOut.find(_._1.column == c).map(_._2)
      else vq.projection.find(_._1.column == c).map(_._2)
    val comp: Seq[Column] = compCols.map { c =>
      val n = mvName(c).getOrElse(return None)
      qD(c).toColumn(n)
    }

    val mvDf = spark.table(v.name)
    val filtered = comp.foldLeft(mvDf)(_.filter(_))

    (q.isAggregate, vq.isAggregate) match {
      case (false, false) =>
        // SPJ over SPJ view: project the requested columns
        Some(filtered.select(q.outColumns((cr, _) => mvName(cr.column).getOrElse(return None)): _*))

      case (true, false) =>
        // aggregate over an SPJ (e.g. denormalized) view: group and
        // aggregate directly on the view. Aggregate args reference source
        // column names, so the view must expose them under the same names.
        val groupCols = q.groupBy.get.map(_.column).distinct
        groupCols.foreach(c => if (!mvName(c).contains(c)) return None)
        q.aggs.foreach(_.argCols.foreach(c => if (!mvName(c).contains(c)) return None))
        Some(evaluate(filtered, q))

      case (true, true) =>
        // SPJA over SPJA view: rollup-derive each aggregate
        val groupCols = q.groupBy.get.map(_.column).distinct
        val mvGroup = groupCols.map(c => mvName(c).getOrElse(return None))
        val derived = q.aggs.map { a =>
          val va = vq.aggs.find(va => va.func == a.func && va.arg == a.arg).getOrElse(return None)
          a.rollup(col(va.outName)).as(a.outName)
        }
        Some(Spja.aggregate(filtered, mvGroup, derived)
          .select(q.outColumns((cr, _) => mvName(cr.column).get): _*))

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
      else Spja.aggregate(df, q.groupBy.get.map(_.column).distinct,
        q.aggs.map(a => directAgg(a).as(a.outName)))
    agged.select(q.outColumns((cr, _) => cr.column): _*)
  }

  // --------------------------------------------------------------- partial

  private[core] def tryPartial(spark: SparkSession, q: SpjaQuery,
                               v: MaterializedView): Option[DataFrame] = {
    val vq = v.query
    if (q.tables != vq.tables || q.joins != vq.joins) return None
    val qD = Dom.ofPreds(q.preds).getOrElse(return None)
    val vD = Dom.ofPreds(vq.preds).getOrElse(return None)

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

    val missing = qd.subtract(vd).getOrElse(return None)
    if (missing.isEmpty) return None

    // MV part: query restricted to the view's region on the split column
    val mvDoms = qD.updated(c, qd.intersect(vd))
    val part1 = tryFullWithDoms(spark, q, mvDoms, v).getOrElse(return None)

    // source part: recompute the missing region(s) from the source tables
    val missingFilter = missing.map(_.toColumn(c)).reduce(_ || _)
    val part2 = buildFromSources(spark, q, qD, missingFilter).getOrElse(return None)

    // combine (Figure 4c): UNION ALL then re-aggregate
    val unioned = part1.unionByName(part2)
    Some(if (q.isAggregate) q.reaggregate(unioned) else unioned)
  }

  /** Rebuilds the query directly over its source tables with an extra
    * filter — used for the non-covered slice of a partial rewrite. */
  private def buildFromSources(spark: SparkSession, q: SpjaQuery, qD: Map[String, Dom],
                               extra: Column): Option[DataFrame] = {
    val joined = JoinReorder.build(spark, q, q.tables.toSeq.sorted).getOrElse(return None)
    val filtered = qD.foldLeft(joined.filter(extra)) { case (d, (c, dom)) =>
      d.filter(dom.toColumn(c))
    }
    Some(evaluate(filtered, q))
  }
}
