package perfbench

import org.apache.spark.sql.Row

/** Canonical form of a query answer, for comparing the path under test with
  * the reference. Rows are compared as a multiset. Floating-point cells
  * match within a relative 1e-6, the 6 significant digits `repro.Oracle`
  * uses, because summation order differs between plans; every other cell
  * must be equal as text. */
object Answers {

  /** A row as (non-floating cells joined as text, floating cells). */
  type CanonRow = (String, Seq[Double])
  type Canon = Seq[CanonRow]

  val RelTolerance = 1e-6

  private def floating(v: Any): Option[Double] = v match {
    case d: Double                => Some(d)
    case f: Float                 => Some(f.toDouble)
    case bd: java.math.BigDecimal => Some(bd.doubleValue)
    case _                        => None
  }

  def canon(rows: Seq[Row]): Canon = {
    import Ordering.Implicits._
    rows.map { r =>
      val cells = r.toSeq
      (cells.filter(floating(_).isEmpty).map(String.valueOf).mkString("|"), cells.flatMap(floating))
    }.sorted(Ordering.Tuple2(Ordering.String, seqOrdering[Seq, Double](Ordering.Double.TotalOrdering)))
  }

  def close(a: Double, b: Double): Boolean =
    a == b || (a.isNaN && b.isNaN) || math.abs(a - b) <= RelTolerance * math.max(math.abs(a), math.abs(b))

  def same(got: Canon, expected: Canon): Boolean =
    got.size == expected.size && got.zip(expected).forall { case ((k1, f1), (k2, f2)) =>
      k1 == k2 && f1.size == f2.size && f1.zip(f2).forall { case (a, b) => close(a, b) }
    }

  /** True when `got` matches `expected`; otherwise logs the first
    * differing row once per query. */
  def check(id: String, got: Canon, expected: Canon): Boolean = {
    val ok = same(got, expected)
    if (!ok && reported.add(id)) {
      val firstBad = got.zipAll(expected, null, null).find { case (g, e) => g == null || e == null || !same(Seq(g), Seq(e)) }
      Console.err.println(s"[perfbench] $id: wrong answer (${got.size} rows, expected ${expected.size}); " +
        s"first difference: got ${firstBad.map(_._1)}, expected ${firstBad.map(_._2)}")
    }
    ok
  }

  private val reported = java.util.concurrent.ConcurrentHashMap.newKeySet[String]()
}
