package perfbench

import scala.collection.mutable

/** One timed interval at a layer boundary. Spans of one operation share a
  * `root` id; `parent` is the enclosing span (-1 for the root). */
final case class Span(id: Int, root: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span and counter recorder for the traced run. When disabled
  * every call runs its body and records nothing, so the untraced run pays
  * one branch per boundary. Single-threaded, like the benchmark's client. */
final class Tracer(val enabled: Boolean) {
  private val spans = mutable.ArrayBuffer[Span]()
  private val stack = mutable.Stack[(Int, Int)]() // (span id, root id)
  private var nextId = 0
  private val counters = mutable.LinkedHashMap[String, Double]()
  private val samples = mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]]()

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val (parent, root) = stack.headOption.map { case (p, r) => (p, r) }.getOrElse((-1, id))
      stack.push((id, root))
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack.pop()
        spans += Span(id, root, parent, name, t0, t1)
      }
    }

  /** Adds `v` to counter `name`. */
  def count(name: String, v: Double): Unit =
    if (enabled) counters(name) = counters.getOrElse(name, 0.0) + v

  /** Records one observation of `name` (reported as its mean). */
  def observe(name: String, v: Double): Unit =
    if (enabled) samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

  def allSpans: Seq[Span] = spans.toSeq
  def counter(name: String): Double = counters.getOrElse(name, 0.0)
  def mean(name: String): Double =
    samples.get(name).filter(_.nonEmpty).map(s => s.sum / s.size).getOrElse(0.0)

  /** Mean duration in ms of the spans called `name` (0 when none). */
  def meanMs(name: String): Double = {
    val ds = spans.filter(_.name == name).map(_.durNs)
    if (ds.isEmpty) 0.0 else ds.sum / ds.size / 1e6
  }

  /** Mean self time in ms of the spans called `name`. */
  def meanSelfMs(name: String): Double = {
    val own = spans.filter(_.name == name)
    if (own.isEmpty) 0.0
    else {
      val byParent = spans.groupBy(_.parent)
      own.map(s => Tracer.selfNs(s, byParent.getOrElse(s.id, Seq.empty))).sum / own.size / 1e6
    }
  }
}

object Tracer {
  /** A span's duration minus the part of its interval that its children
    * cover; overlapping children are counted once. */
  def selfNs(span: Span, children: Iterable[Span]): Long = {
    val clipped = children.toSeq
      .map(c => (math.max(c.startNs, span.startNs), math.min(c.endNs, span.endNs)))
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var covered = 0L
    var curS = Long.MinValue; var curE = Long.MinValue
    clipped.foreach { case (s, e) =>
      if (s > curE) {
        if (curE > curS) covered += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (curE > curS) covered += curE - curS
    span.durNs - covered
  }
}
