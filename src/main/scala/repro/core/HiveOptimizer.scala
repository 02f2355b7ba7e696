package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Multi-stage optimization driver (§4.1).
  *
  * Hive drives Calcite through staged rule sets — a cost-based stage and an
  * exhaustive stage — before handing the plan to the runtime. This driver
  * plays the same role in front of Spark's Catalyst: our rules run over the
  * analyzed plan (where source-table references are still visible), and the
  * produced plan then flows through Catalyst's own optimizer and execution.
  *
  *   - stage 1 (cost-based): materialized-view rewriting — the cost model's
  *     choice is approximated by preferring full over partial containment;
  *   - stage 2: shared work ([[SharedWork]]), just before execution: it
  *     merges aggregates that differ only in a filter over one subplan;
  *     equal subtrees are left to Spark's exchange reuse.
  */
final class HiveOptimizer(
    spark: SparkSession,
    mvCatalog: Option[MvCatalog] = None) {

  final case class Optimized(df: DataFrame, rewrites: Seq[String])

  def optimize(df: DataFrame): Optimized = {
    var current = df
    val applied = Seq.newBuilder[String]

    mvCatalog.foreach { cat =>
      MvRewriter.rewrite(spark, current, cat).foreach { rw =>
        current = rw.df
        applied += s"mv-rewrite:${rw.view}:${rw.kind}"
      }
    }

    val sw = SharedWork.optimize(spark, current)
    if (sw.sharedSubplans > 0) {
      current = sw.df
      applied += s"shared-work:${sw.sharedSubplans}"
    }

    Optimized(current, applied.result())
  }
}
