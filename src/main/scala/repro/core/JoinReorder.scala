package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.metastore.{Catalog, TableStats}

/** Cost model over HMS statistics (§4.1): cardinalities after filters via
  * column range/equality selectivity, join sizes via the NDV-containment
  * estimate |A ⋈ B| = |A|·|B| / max(ndv_A(k), ndv_B(k)). */
object CostModel {

  /** Estimated cardinality of `table` after applying `preds`. */
  def filteredCardinality(stats: TableStats, preds: Seq[Pred]): Double = {
    val sel = preds.map {
      case RangePred(c, lo, _, hi, _) =>
        stats.columns.get(c).map(_.rangeSelectivity(lo, hi)).getOrElse(0.5)
      case InPred(c, vs) =>
        stats.columns.get(c).map(s => math.min(1.0, vs.size * s.equalitySelectivity)).getOrElse(0.3)
      case EqStrPred(c, _) =>
        stats.columns.get(c).map(_.equalitySelectivity).getOrElse(0.1)
      case InStrPred(c, vs) =>
        stats.columns.get(c).map(s => math.min(1.0, vs.size * s.equalitySelectivity)).getOrElse(0.3)
    }.product
    math.max(1.0, stats.rowCount * sel)
  }

  /** Join size estimate using distinct-value containment. */
  def joinCardinality(leftRows: Double, rightRows: Double,
                      leftNdv: Long, rightNdv: Long): Double = {
    val d = math.max(math.max(leftNdv, rightNdv), 1L)
    math.max(1.0, leftRows * rightRows / d)
  }
}

/** Greedy cost-based join reordering, standing in for the Calcite join
  * reordering rules Hive enables (§4.1). Starts from the smallest filtered
  * relation and repeatedly joins the connected relation that minimizes the
  * estimated intermediate size. */
object JoinReorder {

  final case class Plan(order: Seq[String], estimatedRows: Seq[Double])

  /** Chooses a join order for `q` using statistics from `catalog`. */
  def plan(q: SpjaQuery, catalog: Catalog): Plan = {
    val stats: Map[String, TableStats] = q.tables.map { t =>
      t -> catalog.statsOf(t).getOrElse(TableStats(1000000L, Map.empty))
    }.toMap
    val owner: Map[String, String] = stats.flatMap { case (t, s) => s.columns.keys.map(_ -> t) }
    def predsOf(t: String): Seq[Pred] =
      q.preds.filter(p => owner.get(p.column).contains(t))
    val filtered: Map[String, Double] =
      q.tables.map(t => t -> CostModel.filteredCardinality(stats(t), predsOf(t))).toMap

    def joinNdv(t: String, included: Set[String]): (Long, Long) =
      conditions(q, owner, t, included).headOption match {
        case Some((tCol, oCol)) =>
          val tNdv = stats(t).columns.get(tCol).map(_.ndv).getOrElse(1000L)
          val oNdv = owner.get(oCol).flatMap(o => stats(o).columns.get(oCol).map(_.ndv)).getOrElse(1000L)
          (tNdv, oNdv)
        case None => (1L, 1L)
      }

    val start = q.tables.minBy(filtered)
    var order = Vector(start)
    var included = Set(start)
    var size = filtered(start)
    var sizes = Vector(size)
    while (included.size < q.tables.size) {
      val candidates = (q.tables -- included).filter(conditions(q, owner, _, included).nonEmpty)
      val pool = if (candidates.nonEmpty) candidates else q.tables -- included // cross join fallback
      val next = pool.minBy { t =>
        val (tN, oN) = joinNdv(t, included)
        CostModel.joinCardinality(size, filtered(t), tN, oN)
      }
      val (tN, oN) = joinNdv(next, included)
      size = CostModel.joinCardinality(size, filtered(next), tN, oN)
      order :+= next
      sizes :+= size
      included += next
    }
    Plan(order, sizes)
  }

  /** The join conditions of `q` that link table `t` to the tables in
    * `joined`, each as (column of `t`, column of a joined table); `owner`
    * maps a column to its table. */
  private def conditions(q: SpjaQuery, owner: Map[String, String], t: String,
                         joined: Set[String]): Seq[(String, String)] =
    q.joins.toSeq.sorted.flatMap { case (a, b) =>
      if (owner.get(a).contains(t) && owner.get(b).exists(joined)) Some((a, b))
      else if (owner.get(b).contains(t) && owner.get(a).exists(joined)) Some((b, a))
      else None
    }

  /** Joins the tables of `q` along its join conditions. Each step attaches
    * the first table in `order` that a condition links to the tables joined
    * so far; None when the join graph is disconnected. */
  def build(spark: SparkSession, q: SpjaQuery, order: Seq[String]): Option[DataFrame] = {
    val owner: Map[String, String] = q.tables.flatMap { t =>
      spark.table(t).columns.map(_ -> t)
    }.toMap
    def attach(df: DataFrame, joined: Set[String], rest: Seq[String]): Option[DataFrame] =
      if (rest.isEmpty) Some(df)
      else rest.iterator.map(t => t -> conditions(q, owner, t, joined)).find(_._2.nonEmpty) match {
        case Some((t, conds)) =>
          val on = conds.map { case (a, b) => col(a) === col(b) }.reduce(_ && _)
          attach(df.join(spark.table(t), on), joined + t, rest.filterNot(_ == t))
        case None => None
      }
    attach(spark.table(order.head), Set(order.head), order.tail)
  }
}
