package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** The values a conjunction of predicates allows on one column: the
  * per-column range test of view matching (Goldstein & Larson, SIGMOD
  * 2001), which MV containment (§4.4), the LLAP elevator's row-group
  * pruning (§5.1) and the Druid pushdown (§6.2) all decide by.
  *
  * A domain is either numeric (interval intersected with an optional
  * IN-set) or a string domain (allowed-value set). Domains support the
  * three operations rewriting needs: intersection, implication (subset) and
  * subtraction (for partially contained rewrites). The constructors of the
  * companion object are the one place where a constant becomes a domain.
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
          // an interval implies a finite set only as a single point
          if (o.inSet.isDefined) lo == hi && loIncl && hiIncl && o.contains(lo)
          else {
            val loOk = lo > o.lo || (lo == o.lo && (o.loIncl || !loIncl))
            val hiOk = hi < o.hi || (hi == o.hi && (o.hiIncl || !hiIncl))
            loOk && hiOk
          }
      }
    case _ => false
  }

  /** `this` minus `other`, as disjoint domains (partial rewrites, Fig 4c). */
  def subtract(other: NumDom): Seq[NumDom] =
    effectiveSet match {
      case Some(vals) =>
        Seq(NumDom(Double.NegativeInfinity, true, Double.PositiveInfinity, true,
          Some(vals.filterNot(other.contains)))).filter(_.inSet.exists(_.nonEmpty))
      case None if other.inSet.isDefined =>
        // an interval minus finitely many points: the pieces between them
        val cuts = other.effectiveSet.get.filter(contains).toSeq.sorted
        val los = (lo, loIncl) +: cuts.map((_, false))
        val his = cuts.map((_, false)) :+ ((hi, hiIncl))
        los.zip(his).map { case ((l, li), (h, hc)) => NumDom(l, li, h, hc, None) }.filter(_.nonEmptyInterval)
      case None =>
        // a \ b = a ∩ complement(b): intersect keeps pieces clipped to a
        val below = this.intersect(
          NumDom(Double.NegativeInfinity, true, other.lo, !other.loIncl, None))
        val above = this.intersect(
          NumDom(other.hi, !other.hiIncl, Double.PositiveInfinity, true, None))
        Seq(below, above).filter(_.nonEmptyInterval)
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

  /** `column = v`. */
  def equalTo(v: Any): Option[Dom] = in(Seq(v))

  /** `column IN (vs)`: strings give a [[StrDom]], numbers and dates an
    * IN-set [[NumDom]] (the shape the elevator probes Bloom indexes with). */
  def in(vs: Seq[Any]): Option[Dom] =
    if (vs.nonEmpty && vs.forall(_.isInstanceOf[String])) Some(StrDom(vs.map(_.toString).toSet))
    else {
      val ds = vs.map(num)
      if (ds.forall(_.isDefined)) Some(unconstrainedNum.copy(inSet = Some(ds.flatten.toSet))) else None
    }

  def lessThan(v: Any): Option[Dom] = num(v).map(d => unconstrainedNum.copy(hi = d, hiIncl = false))
  def lessThanOrEqual(v: Any): Option[Dom] = num(v).map(d => unconstrainedNum.copy(hi = d))
  def greaterThan(v: Any): Option[Dom] = num(v).map(d => unconstrainedNum.copy(lo = d, loIncl = false))
  def greaterThanOrEqual(v: Any): Option[Dom] = num(v).map(d => unconstrainedNum.copy(lo = d))

  /** A constant as the double a domain holds: a number, or a date as days
    * since the epoch. None for any other type, and from 2^53 on, where
    * neighbouring longs share a double: a bound or key there would be
    * rounded, and a rewrite or probe with it could return wrong rows. */
  private def num(v: Any): Option[Double] = (v match {
    case n: Number              => Some(n.doubleValue)
    case d: java.sql.Date       => Some(d.toLocalDate.toEpochDay.toDouble)
    case d: java.time.LocalDate => Some(d.toEpochDay.toDouble)
    case _                      => None
  }).filter(d => math.abs(d) < 9007199254740992.0)

  /** Folds (column, domain) conjuncts into one domain per column. Returns
    * None if a column mixes numeric and string domains (ill-typed query). */
  def conjoin(doms: Seq[(String, Dom)]): Option[Map[String, Dom]] =
    Some(doms.groupMap(_._1)(_._2).map { case (c, ds) =>
      c -> ds.reduceLeft[Dom] {
        case (a: NumDom, b: NumDom) => a.intersect(b)
        case (StrDom(a), StrDom(b)) => StrDom(a.intersect(b))
        case _                      => return None
      }
    })
}
