package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Per-column value domain used by the containment checker (§4.4).
  *
  * A conjunction of supported predicates on one column collapses to either
  * a numeric domain (interval intersected with an optional IN-set) or a
  * string domain (allowed-value set). Domains support the three operations
  * rewriting needs: intersection, implication (subset) and subtraction
  * (for partially contained rewrites).
  */
sealed trait Dom {
  /** True iff every value satisfying `this` also satisfies `other`. */
  def implies(other: Dom): Boolean
  /** Renders the domain as a filter over column `name`. */
  def toColumn(name: String): Column
}

final case class NumDom(
    lo: Double, loIncl: Boolean,
    hi: Double, hiIncl: Boolean,
    inSet: Option[Set[Double]]) extends Dom {

  def contains(v: Double): Boolean =
    (v > lo || (loIncl && v == lo)) && (v < hi || (hiIncl && v == hi)) &&
      inSet.forall(_.contains(v))

  /** True when the interval admits at least one value. */
  def nonEmptyInterval: Boolean =
    lo < hi || (lo == hi && loIncl && hiIncl)

  /** True when the interval, IN-set aside, admits a value in [mn, mx]: the
    * row-group test of the LLAP elevator's min/max index. */
  def overlaps(mn: Double, mx: Double): Boolean =
    intersect(NumDom(mn, true, mx, true, None)).nonEmptyInterval

  /** Values of the IN-set that survive the interval, when the set exists. */
  def effectiveSet: Option[Set[Double]] =
    inSet.map(_.filter(v => (v > lo || (loIncl && v == lo)) && (v < hi || (hiIncl && v == hi))))

  def intersect(other: NumDom): NumDom = {
    val (nlo, nloIncl) =
      if (lo > other.lo) (lo, loIncl)
      else if (lo < other.lo) (other.lo, other.loIncl)
      else (lo, loIncl && other.loIncl)
    val (nhi, nhiIncl) =
      if (hi < other.hi) (hi, hiIncl)
      else if (hi > other.hi) (other.hi, other.hiIncl)
      else (hi, hiIncl && other.hiIncl)
    val set = (inSet, other.inSet) match {
      case (Some(a), Some(b)) => Some(a.intersect(b))
      case (a, b)             => a.orElse(b)
    }
    NumDom(nlo, nloIncl, nhi, nhiIncl, set)
  }

  override def implies(other: Dom): Boolean = other match {
    case o: NumDom =>
      effectiveSet match {
        case Some(vals) => vals.forall(o.contains)
        case None =>
          if (o.inSet.isDefined) false // interval can't imply a finite set
          else {
            val loOk = lo > o.lo || (lo == o.lo && (o.loIncl || !loIncl))
            val hiOk = hi < o.hi || (hi == o.hi && (o.hiIncl || !hiIncl))
            loOk && hiOk
          }
      }
    case _ => false
  }

  /** `this` minus `other`, as disjoint domains (partial rewrites, Fig 4c).
    * Returns None when the difference is not expressible in this model. */
  def subtract(other: NumDom): Option[Seq[NumDom]] = {
    effectiveSet match {
      case Some(vals) =>
        Some(Seq(NumDom(Double.NegativeInfinity, true, Double.PositiveInfinity, true,
          Some(vals.filterNot(other.contains)))).filter(_.inSet.exists(_.nonEmpty)))
      case None if other.inSet.isDefined => None
      case None =>
        // a \ b = a ∩ complement(b): intersect keeps pieces clipped to a
        val below = this.intersect(
          NumDom(Double.NegativeInfinity, true, other.lo, !other.loIncl, None))
        val above = this.intersect(
          NumDom(other.hi, !other.hiIncl, Double.PositiveInfinity, true, None))
        Some(Seq(below, above).filter(_.nonEmptyInterval))
    }
  }

  override def toColumn(name: String): Column = {
    val c = col(name)
    effectiveSet match {
      case Some(vals) => c.isin(vals.toSeq.map(_.asInstanceOf[Any]): _*)
      case None =>
        val parts = Seq(
          if (lo > Double.NegativeInfinity) Some(if (loIncl) c >= lo else c > lo) else None,
          if (hi < Double.PositiveInfinity) Some(if (hiIncl) c <= hi else c < hi) else None,
        ).flatten
        parts.reduceOption(_ && _).getOrElse(lit(true))
    }
  }
}

final case class StrDom(allowed: Set[String]) extends Dom {
  override def implies(other: Dom): Boolean = other match {
    case StrDom(o) => allowed.subsetOf(o)
    case _         => false
  }
  override def toColumn(name: String): Column =
    col(name).isin(allowed.toSeq.map(_.asInstanceOf[Any]): _*)
}

object Dom {
  val unconstrainedNum: NumDom =
    NumDom(Double.NegativeInfinity, true, Double.PositiveInfinity, true, None)

  private def ofPred(p: Pred): Dom = p match {
    case RangePred(_, lo, li, hi, hc) => NumDom(lo, li, hi, hc, None)
    case InPred(_, vs)                => NumDom(Double.NegativeInfinity, true, Double.PositiveInfinity, true, Some(vs))
    case EqStrPred(_, v)              => StrDom(Set(v))
    case InStrPred(_, vs)             => StrDom(vs)
  }

  /** Folds conjunct predicates into one domain per column. Returns None if
    * a column mixes numeric and string constraints (ill-typed query). */
  def ofPreds(preds: Seq[Pred]): Option[Map[String, Dom]] = {
    val grouped = preds.groupBy(_.column)
    val out = grouped.map { case (c, ps) =>
      val doms = ps.map(ofPred)
      val merged = doms.reduceLeft[Dom] {
        case (a: NumDom, b: NumDom) => a.intersect(b)
        case (StrDom(a), StrDom(b)) => StrDom(a.intersect(b))
        case _                      => return None
      }
      c -> merged
    }
    Some(out)
  }
}
