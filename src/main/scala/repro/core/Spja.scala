package repro.core

import java.time.LocalDate

import org.apache.spark.sql.{Column, DataFrame, functions => F}
import org.apache.spark.sql.catalyst.CatalystTypeConverters
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.aggregate._
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical._
import org.apache.spark.sql.types._

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

/** Select-Project-Join-Aggregate normal form (§4.4). Columns are named by
  * their source column names, which are assumed globally unique across the
  * tables of one query (true for TPC-DS/SSB-style star schemas with their
  * `ss_`/`d_`/`i_` prefixes) — this keeps the canonical expression strings
  * both comparable and re-parsable via `expr(...)`.
  *
  * @param tables   source table names (one occurrence each; self-joins are
  *                 out of scope and fail extraction)
  * @param joins    inner equi-join conditions as sorted column-name pairs
  * @param doms     the filter conjuncts as one [[Dom]] per column
  * @param groupBy  group-by columns (None = SPJ, no aggregation)
  * @param aggs     aggregate outputs in projection order
  * @param outCols  (column, output name) of each group column of an
  *                 aggregate, or of each projected column of an SPJ query
  * @param outOrder output column names in the query's projection order
  */
final case class SpjaQuery(
    tables: Set[String],
    joins: Set[(String, String)],
    doms: Map[String, Dom],
    groupBy: Option[Seq[String]],
    aggs: Seq[AggSpec],
    outCols: Seq[(String, String)],
    outOrder: Seq[String]) {

  def isAggregate: Boolean = groupBy.isDefined

  /** The output columns in projection order. `source(column)` names the
    * input column that holds each group or projected column; aggregate
    * outputs are read under their own names. */
  def outColumns(source: String => String): Seq[Column] =
    outOrder.map { n =>
      outCols.find(_._2 == n) match {
        case Some((c, _)) => F.col(source(c)).as(n)
        case None         => F.col(n)
      }
    }

  /** Re-aggregates partial results that carry this query's output columns,
    * e.g. a UNION ALL of partial aggregates, into the query's result. */
  def reaggregate(partials: DataFrame): DataFrame =
    Spja.aggregate(partials, outCols.map(_._2).distinct,
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
  * Calcite rule only firing on SPJA expressions. A filter conjunct must be
  * a comparison or IN of a column with constants that [[Dom]]'s
  * constructors turn into a domain. */
object Spja {

  /** A column of a named source table: the table tells joins from filters. */
  private final case class ColRef(table: String, column: String)

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

  /** Text of a numeric domain value on a column of type `dt`: whole numbers
    * without a fraction (a domain holds them exactly, see [[Dom]]), other
    * numbers as doubles, DATE values (days since the epoch) as ISO dates.
    * The Druid pushdown renders its IN values with it. */
  def literalText(d: Double, dt: DataType): String =
    if (dt == DateType) LocalDate.ofEpochDay(d.toLong).toString
    else if (d == math.rint(d)) d.toLong.toString
    else d.toString

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
    def column(e: Expression): Option[String] = colOf(e).map(_.column)

    // classify conjuncts into joins and filter domains
    var joins = Set.empty[(String, String)]
    val conjuncts = Seq.newBuilder[(String, Dom)]
    parts.conjuncts.map(resolve).flatMap(splitConjuncts).foreach { c =>
      c match {
        case Literal(true, BooleanType) => () // vacuous conjunct, drop
        case EqualTo(l, r) if colOf(l).isDefined && colOf(r).isDefined &&
            colOf(l).get.table != colOf(r).get.table =>
          val (a, b) = (colOf(l).get.column, colOf(r).get.column)
          joins += (if (a <= b) (a, b) else (b, a))
        case other =>
          conjuncts += toDom(other, column).getOrElse(return None)
      }
    }
    val doms = Dom.conjoin(conjuncts.result()).getOrElse(return None)

    aggNode match {
      case None =>
        // SPJ: the plan's output must be plain (possibly renamed) columns
        val proj = plan.output.map(a => (column(a).getOrElse(return None), a.name))
        Some(SpjaQuery(parts.tables.keySet, joins, doms, None, Seq.empty, proj, proj.map(_._2)))

      case Some(agg) =>
        val groupCols = agg.groupingExpressions.map(g => column(g).getOrElse(return None))
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

        val groupOut = Seq.newBuilder[(String, String)]
        val aggs = Seq.newBuilder[AggSpec]
        agg.aggregateExpressions.foreach { ne =>
          stripCast(resolve(ne match { case Alias(child, _) => child; case other => other })) match {
            case ae: AggregateExpression =>
              aggs += toAggSpec(ae, outName(ne), e => canon(e, column),
                e => argColsOf(e, column)).getOrElse(return None)
            case a: AttributeReference =>
              groupOut += ((column(a).getOrElse(return None), outName(ne)))
            case _ => return None
          }
        }
        Some(SpjaQuery(parts.tables.keySet, joins, doms, Some(groupCols), aggs.result(),
          groupOut.result(), agg.aggregateExpressions.map(outName)))
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

  /** The value of a constant operand as a Scala object (a number,
    * `java.sql.Date`, `String`, …): a literal, or a cast of constants
    * folded. */
  private def constant(e: Expression): Option[Any] = e match {
    case _: Literal | _: Cast if e.foldable =>
      Some(CatalystTypeConverters.convertToScala(e.eval(), e.dataType))
    case _ => None
  }

  /** A filter conjunct as the domain it allows on one column: a comparison
    * of the column with a constant, on either side, or an IN list. */
  private def toDom(e: Expression, column: Expression => Option[String]): Option[(String, Dom)] = {
    // `l op r`; `flipped` is the same comparison read from the right
    def cmp(l: Expression, r: Expression, op: Any => Option[Dom],
            flipped: Any => Option[Dom]): Option[(String, Dom)] =
      (column(l), constant(r)) match {
        case (Some(c), Some(v)) => op(v).map(c -> _)
        case _                  => for (c <- column(r); v <- constant(l); d <- flipped(v)) yield c -> d
      }
    e match {
      case EqualTo(l, r)            => cmp(l, r, Dom.equalTo, Dom.equalTo)
      case GreaterThan(l, r)        => cmp(l, r, Dom.greaterThan, Dom.lessThan)
      case GreaterThanOrEqual(l, r) => cmp(l, r, Dom.greaterThanOrEqual, Dom.lessThanOrEqual)
      case LessThan(l, r)           => cmp(l, r, Dom.lessThan, Dom.greaterThan)
      case LessThanOrEqual(l, r)    => cmp(l, r, Dom.lessThanOrEqual, Dom.greaterThanOrEqual)
      case In(v, list) =>
        val vs = list.map(constant)
        for (c <- column(v) if vs.forall(_.isDefined); d <- Dom.in(vs.flatten)) yield c -> d
      case _ => None
    }
  }

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

  private def argColsOf(e: Expression, column: Expression => Option[String]): Set[String] =
    e.collect { case a: AttributeReference => column(a) }.flatten.toSet

  /** Canonical bare-column expression string: comparable across plans and
    * re-parsable via functions.expr on a frame with those column names. */
  private def canon(e: Expression, column: Expression => Option[String]): String = e match {
    case a: AttributeReference => column(a).getOrElse(throw new UnsupportedPlanException)
    case Cast(c, _, _, _) => canon(c, column)
    case Literal(v, StringType) => s"'$v'"
    case Literal(v, _) => String.valueOf(v)
    case Add(l, r, _)      => s"(${canon(l, column)} + ${canon(r, column)})"
    case Subtract(l, r, _) => s"(${canon(l, column)} - ${canon(r, column)})"
    case Multiply(l, r, _) => s"(${canon(l, column)} * ${canon(r, column)})"
    case Divide(l, r, _)   => s"(${canon(l, column)} / ${canon(r, column)})"
    case _ => throw new UnsupportedPlanException
  }
}
