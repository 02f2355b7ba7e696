package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

/** Builds the join chain of an SPJA query from its source tables. Join order
  * itself is left to Spark, which plans from the statistics the scans report
  * (§4.1) and re-plans at stage boundaries under AQE (§4.2). */
object JoinReorder {

  /** Joins the tables of `q` along its join conditions. Each step attaches
    * the first table in `order` that a condition links to the tables joined
    * so far; None when the join graph is disconnected. */
  def build(spark: SparkSession, q: SpjaQuery, order: Seq[String]): Option[DataFrame] = {
    val owner: Map[String, String] = q.tables.flatMap { t =>
      spark.table(t).columns.map(_ -> t)
    }.toMap
    val joins = q.joins.toSeq.sorted
    // the conditions linking `t` to the `joined` tables, as (column of t, joined column)
    def conditions(t: String, joined: Set[String]): Seq[(String, String)] =
      joins.flatMap { case (a, b) =>
        if (owner.get(a).contains(t) && owner.get(b).exists(joined)) Some((a, b))
        else if (owner.get(b).contains(t) && owner.get(a).exists(joined)) Some((b, a))
        else None
      }
    def attach(df: DataFrame, joined: Set[String], rest: Seq[String]): Option[DataFrame] =
      if (rest.isEmpty) Some(df)
      else rest.iterator.map(t => t -> conditions(t, joined)).find(_._2.nonEmpty) match {
        case Some((t, conds)) =>
          val on = conds.map { case (a, b) => col(a) === col(b) }.reduce(_ && _)
          attach(df.join(spark.table(t), on), joined + t, rest.filterNot(_ == t))
        case None => None
      }
    attach(spark.table(order.head), Set(order.head), order.tail)
  }
}
