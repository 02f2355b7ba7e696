package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.repro.PlanUtils
import org.apache.spark.sql.catalyst.expressions.{Attribute, AttributeMap, Expression, NamedExpression, SubqueryExpression}
import org.apache.spark.sql.catalyst.expressions.aggregate.AggregateExpression
import org.apache.spark.sql.catalyst.plans.{Cross, Inner}
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Filter, Join, JoinHint, LogicalPlan, Project, SubqueryAlias}

/** Shared work optimization (§4.5).
  *
  * Spark's exchange reuse already evaluates equal subtrees of one plan once.
  * It cannot share q88's shape: global aggregates over one subplan that
  * differ only in a `Filter` directly above it, cross-joined into one row.
  * This rewrite merges each such group into one `Aggregate` over a single
  * copy of the subplan, with each consumer's filter as the `FILTER (WHERE …)`
  * of its aggregate functions (Zhou et al., "Efficient Exploitation of
  * Similar Subexpressions for Query Processing", SIGMOD 2007). Like Hive's
  * reuse-based optimizer it searches no plan space; the result is an
  * ordinary plan, and nothing is cached.
  */
object SharedWork {
  final case class Result(df: DataFrame, sharedSubplans: Int)

  /** A global aggregate over `Filter(condition, child)`, and the join leaf it is. */
  private final case class Consumer(
      leaf: LogicalPlan, aggs: Seq[NamedExpression], condition: Expression, child: LogicalPlan)

  /** Applies the rewrite just before execution, as Hive does;
    * `sharedSubplans` counts the merged groups. */
  def optimize(spark: SparkSession, df: DataFrame): Result = {
    var merged = 0
    val plan = df.queryExecution.analyzed.transformDown {
      case j @ Join(_, _, Inner | Cross, None, _) =>
        val leaves = joinLeaves(j)
        val groups = leaves.flatMap(consumer).groupBy(_.child.canonicalized).values.filter(_.size > 1).toSeq
        if (groups.isEmpty) j
        else {
          merged += groups.size
          val consumed = groups.flatten.map(_.leaf).toSet
          val kept = leaves.filterNot(consumed) ++ groups.map(merge)
          Project(j.output, kept.reduceLeft(Join(_, _, Inner, None, JoinHint.NONE)))
        }
    }
    Result(if (merged == 0) df else PlanUtils.ofRows(spark, plan), merged)
  }

  private def joinLeaves(p: LogicalPlan): Seq[LogicalPlan] = p match {
    case Join(l, r, Inner | Cross, None, _) => joinLeaves(l) ++ joinLeaves(r)
    case _ => Seq(p)
  }

  private def consumer(leaf: LogicalPlan): Option[Consumer] = {
    def unalias(p: LogicalPlan): LogicalPlan = p match {
      case SubqueryAlias(_, child) => unalias(child)
      case _ => p
    }
    unalias(leaf) match {
      case Aggregate(Nil, aggs, Filter(cond, child), _)
          if cond.deterministic && !SubqueryExpression.hasSubquery(cond) &&
            aggs.forall(_.collect { case ae: AggregateExpression => ae }
              .forall(ae => !ae.isDistinct && ae.filter.isEmpty)) =>
        Some(Consumer(leaf, aggs, cond, child))
      case _ => None
    }
  }

  /** One aggregate over the first consumer's child. Each consumer's
    * attributes are remapped onto that copy by position; its `Alias` ids
    * stay, so the plan above still resolves. */
  private def merge(group: Seq[Consumer]): LogicalPlan = {
    val kept = group.head.child
    val aggs = group.flatMap { c =>
      val onKept = AttributeMap(c.child.output.zip(kept.output))
      def remap(e: Expression) = e.transformUp { case a: Attribute => onKept.getOrElse(a, a) }
      val cond = remap(c.condition)
      c.aggs.map(remap(_).transformUp {
        case ae: AggregateExpression => ae.copy(filter = Some(cond))
      }.asInstanceOf[NamedExpression])
    }
    Aggregate(Nil, aggs, kept)
  }
}
