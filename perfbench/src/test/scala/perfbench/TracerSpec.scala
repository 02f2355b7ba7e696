package perfbench

import org.scalatest.funsuite.AnyFunSuite

class TracerSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, s: Long, e: Long) = Span(id, 0, parent, s"s$id", s, e)

  test("self time subtracts the union of child intervals") {
    val parent = span(0, -1, 0, 100)
    assert(Tracer.selfNs(parent, Seq.empty) == 100)
    assert(Tracer.selfNs(parent, Seq(span(1, 0, 10, 30), span(2, 0, 60, 70))) == 70)
    // overlapping children are counted once
    assert(Tracer.selfNs(parent, Seq(span(1, 0, 10, 30), span(2, 0, 20, 50), span(3, 0, 60, 70))) == 50)
    // nested and identical intervals
    assert(Tracer.selfNs(parent, Seq(span(1, 0, 10, 50), span(2, 0, 20, 30), span(3, 0, 10, 50))) == 60)
    // children are clipped to the parent's interval
    assert(Tracer.selfNs(parent, Seq(span(1, 0, -20, 10), span(2, 0, 90, 120))) == 80)
    assert(Tracer.selfNs(parent, Seq(span(1, 0, 0, 100))) == 0)
  }

  test("spans nest, share their root, and report self time") {
    val t = new Tracer(true)
    t.span("query") {
      t.span("a")(Thread.sleep(20))
      t.span("b")(t.span("c")(Thread.sleep(20)))
      Thread.sleep(20)
    }
    val byName = t.allSpans.map(s => s.name -> s).toMap
    val q = byName("query")
    assert(q.parent == -1 && q.root == q.id)
    assert(byName("a").parent == q.id && byName("b").parent == q.id)
    assert(byName("c").parent == byName("b").id)
    assert(t.allSpans.forall(_.root == q.id))
    assert(math.abs(t.meanSelfMs("query") - (t.meanMs("query") - t.meanMs("a") - t.meanMs("b"))) < 1e-9)
    assert(t.meanSelfMs("query") >= 19.0)
    assert(t.meanSelfMs("b") < t.meanMs("b"))
  }

  test("a disabled tracer runs the body and records nothing") {
    val t = new Tracer(false)
    assert(t.span("x")(41 + 1) == 42)
    t.count("n", 1); t.observe("o", 2)
    assert(t.allSpans.isEmpty && t.counter("n") == 0 && t.mean("o") == 0 && t.meanMs("x") == 0)
  }
}
