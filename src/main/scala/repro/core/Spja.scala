package repro.core

import java.time.LocalDate

import org.apache.spark.sql.{Column, DataFrame, functions => F}
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.aggregate._
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical._
import org.apache.spark.sql.types._

/** A column of a named source table. Column names are assumed globally
  * unique across the tables of one query (true for TPC-DS/SSB-style star
  * schemas with their `ss_`/`d_`/`i_` prefixes) — this keeps the canonical
  * expression strings both comparable and re-parsable via `expr(...)`. */
final case class ColRef(table: String, column: String) {
  def key: String = s"$table.$column"
}

/** Conjunct predicates the containment checker understands. Numeric and
  * date comparisons collapse to double-valued intervals; strings keep
  * equality/IN semantics. */
sealed trait Pred { def column: String }
final case class RangePred(column: String, lo: Double, loIncl: Boolean,
                           hi: Double, hiIncl: Boolean) extends Pred
final case class InPred(column: String, values: Set[Double]) extends Pred
final case class EqStrPred(column: String, value: String) extends Pred
final case class InStrPred(column: String, values: Set[String]) extends Pred

/** One aggregate output: func in {sum,count,count_star,min,max}, arg as a
  * canonical bare-column expression string (re-parsable with expr()), and
  * the set of columns the arg references. */
final case class AggSpec(func: String, arg: Option[String], outName: String,
                         argCols: Set[String]) {
  /** This aggregate over a column of partial results of the same aggregate
    * (§4.4): SUM and COUNT re-sum, MIN and MAX re-min and re-max. */
  def rollup(partial: Column): Column = func match {
    case "sum" | "count" | "count_star" => F.sum(partial)
    case "min"                          => F.min(partial)
    case "max"                          => F.max(partial)
  }
}

/** Select-Project-Join-Aggregate normal form (§4.4).
  *
  * @param tables     source table names (one occurrence each; self-joins are
  *                   out of scope and fail extraction)
  * @param joins      inner equi-join conditions as sorted column-name pairs
  * @param preds      filter conjuncts
  * @param groupBy    group-by columns (None = SPJ, no aggregation)
  * @param groupOut   output name of each group column (projection/rename)
  * @param aggs       aggregate outputs in projection order
  * @param projection SPJ only: output (column -> name) pairs
  * @param outOrder   output column names in the query's projection order
  */
final case class SpjaQuery(
    tables: Set[String],
    joins: Set[(String, String)],
    preds: Seq[Pred],
    groupBy: Option[Seq[ColRef]],
    groupOut: Seq[(ColRef, String)],
    aggs: Seq[AggSpec],
    projection: Seq[(ColRef, String)],
    outOrder: Seq[String]) {

  def isAggregate: Boolean = groupBy.isDefined

  /** All columns referenced by the filter conjuncts. */
  def predColumns: Set[String] = preds.map(_.column).toSet

  /** The output columns in projection order. `source(column, outName)`
    * names the input column that holds each group or projected column;
    * aggregate outputs are read under their own names. */
  def outColumns(source: (ColRef, String) => String): Seq[Column] =
    outOrder.map { n =>
      (groupOut ++ projection).find(_._2 == n) match {
        case Some((cr, _)) => F.col(source(cr, n)).as(n)
        case None          => F.col(n)
      }
    }

  /** Re-aggregates partial results that carry this query's output columns,
    * e.g. a UNION ALL of partial aggregates, into the query's result. */
  def reaggregate(partials: DataFrame): DataFrame =
    Spja.aggregate(partials, groupOut.map(_._2).distinct,
      aggs.map(a => a.rollup(F.col(a.outName)).as(a.outName)))
      .select(outOrder.map(F.col): _*)
}

/** An SPJA core under the ORDER BY (output column, descending) and LIMIT
  * that [[Spja.peel]] took off it. */
final case class Peeled(core: LogicalPlan, sort: Seq[(String, Boolean)], limit: Option[Int]) {
  /** Re-applies the peeled ORDER BY and LIMIT to a frame of the core's output. */
  def reapply(df: DataFrame): DataFrame = {
    val sorted =
      if (sort.isEmpty) df
      else df.orderBy(sort.map { case (c, desc) => if (desc) F.col(c).desc else F.col(c).asc }: _*)
    limit.fold(sorted)(sorted.limit)
  }
}

/** Extraction failure is silent (None): the rewriting rule simply does not
  * fire for plans outside the supported SPJA shape, exactly like Hive's
  * Calcite rule only firing on SPJA expressions. */
object Spja {

  /** Takes a top-level LIMIT and the ORDER BY under it off `plan`. An ORDER
    * BY on anything but output columns stays in the core. */
  def peel(plan: LogicalPlan): Peeled = {
    val (limit, below) = plan match {
      case GlobalLimit(Literal(n: Int, _), LocalLimit(_, child)) => (Some(n), child)
      case other                                                 => (None, other)
    }
    below match {
      case Sort(orders, true, child, _) if orders.forall(_.child.isInstanceOf[AttributeReference]) =>
        Peeled(child, orders.map(o =>
          (o.child.asInstanceOf[AttributeReference].name, o.direction == Descending)), limit)
      case other => Peeled(other, Seq.empty, limit)
    }
  }

  /** `aggs` over `df` grouped by `groupCols`; no group columns is a global
    * aggregate, which yields one row. */
  def aggregate(df: DataFrame, groupCols: Seq[String], aggs: Seq[Column]): DataFrame =
    df.groupBy(groupCols.map(F.col): _*).agg(aggs.head, aggs.tail: _*)

  /** Text of a predicate constant on a column of type `dt`: whole numbers
    * without a fraction, other numbers as doubles, DATE values (days since
    * the epoch) as ISO dates, strings as they are. The Druid pushdown
    * renders its filter constants with it. */
  def literalText(v: Any, dt: DataType): String = v match {
    case d: Double if dt == DateType => LocalDate.ofEpochDay(d.toLong).toString
    case d: Double if d == math.rint(d) && math.abs(d) < 1e15 => d.toLong.toString
    case d: Double => d.toString
    case s: String => s
  }

  /** Extracts the SPJA form of an *analyzed* plan whose leaf tables are the
    * `sources` temp views (matched through their SubqueryAlias names). */
  def extract(plan: LogicalPlan, sources: Set[String]): Option[SpjaQuery] = try {
    val (aggNode, core) = plan match {
      case a: Aggregate => (Some(a), a.child)
      case Project(list, a: Aggregate) if list.forall {
            case _: AttributeReference => true
            case Alias(_: AttributeReference, _) => true
            case _ => false
          } =>
        // renaming projection over the aggregate — folded into outputs below
        (Some(a), a.child)
      case other => (None, other)
    }

    val parts = collect(core, sources).getOrElse(return None)
    val attrTable: Map[ExprId, ColRef] = parts.tables.flatMap { case (t, attrs) =>
      attrs.map(a => a.exprId -> ColRef(t, a.name))
    }

    def resolve(e: Expression): Expression = e.transformUp {
      case a: AttributeReference if parts.substitutions.contains(a.exprId) =>
        resolve(parts.substitutions(a.exprId))
    }

    def colOf(e: Expression): Option[ColRef] = stripCast(resolve(e)) match {
      case a: AttributeReference => attrTable.get(a.exprId)
      case _ => None
    }

    // classify conjuncts into joins and filter predicates
    var joins = Set.empty[(String, String)]
    val preds = Seq.newBuilder[Pred]
    parts.conjuncts.map(resolve).flatMap(splitConjuncts).foreach { c =>
      c match {
        case Literal(true, BooleanType) => () // vacuous conjunct, drop
        case EqualTo(l, r) if colOf(l).isDefined && colOf(r).isDefined &&
            colOf(l).get.table != colOf(r).get.table =>
          val (a, b) = (colOf(l).get.column, colOf(r).get.column)
          joins += (if (a <= b) (a, b) else (b, a))
        case other =>
          preds += toPred(other, colOf).getOrElse(return None)
      }
    }

    aggNode match {
      case None =>
        // SPJ: the plan's output must be plain (possibly renamed) columns
        val proj = plan.output.map { a =>
          val src = colOf(a).orElse {
            parts.substitutions.get(a.exprId).flatMap(colOf)
          }.getOrElse(return None)
          (src, a.name)
        }
        Some(SpjaQuery(parts.tables.keySet, joins, preds.result(), None,
          Seq.empty, Seq.empty, proj, proj.map(_._2)))

      case Some(agg) =>
        val groupCols = agg.groupingExpressions.map(g => colOf(g).getOrElse(return None))
        // map exprId of the aggregate's own output to names (handles the
        // optional renaming Project on top)
        val renames: Map[ExprId, String] = plan match {
          case Project(list, _) => list.collect {
            case a: AttributeReference => a.exprId -> a.name
            case al @ Alias(ar: AttributeReference, _) => ar.exprId -> al.name
          }.toMap
          case _ => Map.empty
        }
        def outName(ne: NamedExpression): String = renames.getOrElse(ne.exprId, ne.name)

        val groupOut = Seq.newBuilder[(ColRef, String)]
        val aggs = Seq.newBuilder[AggSpec]
        val order = Seq.newBuilder[String]
        agg.aggregateExpressions.foreach {
          case ne @ (a: AttributeReference) =>
            groupOut += ((colOf(a).getOrElse(return None), outName(ne)))
            order += outName(ne)
          case ne @ Alias(child, _) =>
            stripCast(resolve(child)) match {
              case ae: AggregateExpression =>
                aggs += toAggSpec(ae, outName(ne), e => canon(e, colOf),
                  e => argColsOf(e, colOf)).getOrElse(return None)
                order += outName(ne)
              case a: AttributeReference =>
                groupOut += ((colOf(a).getOrElse(return None), outName(ne)))
                order += outName(ne)
              case _ => return None
            }
          case _ => return None
        }
        Some(SpjaQuery(parts.tables.keySet, joins, preds.result(),
          Some(groupCols), groupOut.result(), aggs.result(), Seq.empty, order.result()))
    }
  } catch {
    case _: UnsupportedPlanException => None
  }

  private final class UnsupportedPlanException extends RuntimeException

  private final case class Parts(
      tables: Map[String, Seq[Attribute]],
      conjuncts: Seq[Expression],
      substitutions: Map[ExprId, Expression])

  /** Collects table leaves, filter/join conjuncts, and projection aliases
    * from the join tree below the (optional) aggregate. */
  private def collect(p: LogicalPlan, sources: Set[String]): Option[Parts] = p match {
    case SubqueryAlias(id, child) if sources.contains(id.name) =>
      Some(Parts(Map(id.name -> p.output), Seq.empty, Map.empty))
    case SubqueryAlias(_, child) => collect(child, sources)
    case Join(l, r, Inner, cond, _) =>
      for (pl <- collect(l, sources); pr <- collect(r, sources)) yield {
        if (pl.tables.keySet.intersect(pr.tables.keySet).nonEmpty)
          return None // self-join: out of scope
        Parts(pl.tables ++ pr.tables,
          pl.conjuncts ++ pr.conjuncts ++ cond.toSeq.flatMap(splitConjuncts),
          pl.substitutions ++ pr.substitutions)
      }
    case Filter(cond, child) =>
      collect(child, sources).map(ps => ps.copy(conjuncts = ps.conjuncts ++ splitConjuncts(cond)))
    case Project(list, child) =>
      collect(child, sources).flatMap { ps =>
        val subs = list.flatMap {
          case _: AttributeReference => None
          case a @ Alias(e, _)       => Some(a.exprId -> e)
          case _                     => return None
        }
        Some(ps.copy(substitutions = ps.substitutions ++ subs))
      }
    case _ => None
  }

  private def splitConjuncts(e: Expression): Seq[Expression] = e match {
    case And(l, r) => splitConjuncts(l) ++ splitConjuncts(r)
    case other     => Seq(other)
  }

  private def stripCast(e: Expression): Expression = e match {
    case Cast(c, _, _, _) => stripCast(c)
    case other            => other
  }

  /** Literal to a comparable double (ints, longs, doubles, decimals, dates). */
  private def litNum(e: Expression): Option[Double] = stripFoldable(e) match {
    case Literal(v, dt) => dt match {
      case _: IntegerType => Some(v.asInstanceOf[Int].toDouble)
      case _: LongType    => Some(v.asInstanceOf[Long].toDouble)
      case _: DoubleType  => Some(v.asInstanceOf[Double])
      case _: FloatType   => Some(v.asInstanceOf[Float].toDouble)
      case _: ShortType   => Some(v.asInstanceOf[Short].toDouble)
      case _: DecimalType => Some(v.asInstanceOf[org.apache.spark.sql.types.Decimal].toDouble)
      case _: DateType    => Some(v.asInstanceOf[Int].toDouble) // days since epoch
      case _              => None
    }
    case _ => None
  }

  private def litStr(e: Expression): Option[String] = stripFoldable(e) match {
    case Literal(v: org.apache.spark.unsafe.types.UTF8String, StringType) => Some(v.toString)
    case Literal(v, StringType) if v != null => Some(v.toString)
    case _ => None
  }

  private def stripFoldable(e: Expression): Expression = e match {
    case c @ Cast(_, _, _, _) if c.foldable => Literal.create(c.eval(), c.dataType)
    case other => other
  }

  private def toPred(e: Expression, colOf: Expression => Option[ColRef]): Option[Pred] = {
    def c(x: Expression): Option[String] = colOf(x).map(_.column)
    e match {
      case EqualTo(l, r) =>
        (c(l), litNum(r), litStr(r), c(r), litNum(l), litStr(l)) match {
          case (Some(col), Some(v), _, _, _, _) => Some(RangePred(col, v, true, v, true))
          case (Some(col), _, Some(s), _, _, _) => Some(EqStrPred(col, s))
          case (_, _, _, Some(col), Some(v), _) => Some(RangePred(col, v, true, v, true))
          case (_, _, _, Some(col), _, Some(s)) => Some(EqStrPred(col, s))
          case _ => None
        }
      case GreaterThan(l, r)        => binRange(c(l), litNum(r), lo = true, incl = false)
                                        .orElse(binRange(c(r), litNum(l), lo = false, incl = false))
      case GreaterThanOrEqual(l, r) => binRange(c(l), litNum(r), lo = true, incl = true)
                                        .orElse(binRange(c(r), litNum(l), lo = false, incl = true))
      case LessThan(l, r)           => binRange(c(l), litNum(r), lo = false, incl = false)
                                        .orElse(binRange(c(r), litNum(l), lo = true, incl = false))
      case LessThanOrEqual(l, r)    => binRange(c(l), litNum(r), lo = false, incl = true)
                                        .orElse(binRange(c(r), litNum(l), lo = true, incl = true))
      case In(v, list) =>
        c(v).flatMap { col =>
          val nums = list.map(litNum)
          val strs = list.map(litStr)
          if (nums.forall(_.isDefined)) Some(InPred(col, nums.flatten.toSet))
          else if (strs.forall(_.isDefined)) Some(InStrPred(col, strs.flatten.toSet))
          else None
        }
      case _ => None
    }
  }

  private def binRange(col: Option[String], v: Option[Double],
                       lo: Boolean, incl: Boolean): Option[Pred] =
    for (cc <- col; vv <- v) yield
      if (lo) RangePred(cc, vv, incl, Double.PositiveInfinity, true)
      else RangePred(cc, Double.NegativeInfinity, true, vv, incl)

  private def toAggSpec(ae: AggregateExpression, name: String,
                        canonF: Expression => String,
                        colsF: Expression => Set[String]): Option[AggSpec] = {
    if (ae.isDistinct || ae.filter.isDefined) return None
    ae.aggregateFunction match {
      case Sum(child, _)  => Some(AggSpec("sum", Some(canonF(child)), name, colsF(child)))
      case Min(child)     => Some(AggSpec("min", Some(canonF(child)), name, colsF(child)))
      case Max(child)     => Some(AggSpec("max", Some(canonF(child)), name, colsF(child)))
      case Count(Seq(Literal(1, _))) => Some(AggSpec("count_star", None, name, Set.empty))
      case Count(Seq(child)) => Some(AggSpec("count", Some(canonF(child)), name, colsF(child)))
      case _ => None
    }
  }

  private def argColsOf(e: Expression, colOf: Expression => Option[ColRef]): Set[String] =
    e.collect { case a: AttributeReference => colOf(a).map(_.column) }.flatten.toSet

  /** Canonical bare-column expression string: comparable across plans and
    * re-parsable via functions.expr on a frame with those column names. */
  private def canon(e: Expression, colOf: Expression => Option[ColRef]): String = e match {
    case a: AttributeReference =>
      colOf(a).map(_.column).getOrElse(throw new UnsupportedPlanException)
    case Cast(c, _, _, _) => canon(c, colOf)
    case Literal(v, StringType) => s"'$v'"
    case Literal(v, _) => String.valueOf(v)
    case Add(l, r, _)      => s"(${canon(l, colOf)} + ${canon(r, colOf)})"
    case Subtract(l, r, _) => s"(${canon(l, colOf)} - ${canon(r, colOf)})"
    case Multiply(l, r, _) => s"(${canon(l, colOf)} * ${canon(r, colOf)})"
    case Divide(l, r, _)   => s"(${canon(l, colOf)} / ${canon(r, colOf)})"
    case _ => throw new UnsupportedPlanException
  }
}
