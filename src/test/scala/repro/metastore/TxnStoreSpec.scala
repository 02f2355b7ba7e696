package repro.metastore

import org.scalatest.funsuite.AnyFunSuite

class TxnStoreSpec extends AnyFunSuite {

  test("TxnIds are monotonically increasing") {
    val s = new TxnStore
    val ids = (1 to 10).map(_ => s.openTxn())
    assert(ids == ids.sorted && ids.distinct.size == 10)
  }

  test("WriteIds are monotonic within a table scope") {
    val s = new TxnStore
    val ws = (1 to 5).map { _ =>
      val t = s.openTxn(); val w = s.allocateWriteId(t, "t1"); s.commit(t); w
    }
    assert(ws == Seq(1L, 2L, 3L, 4L, 5L))
  }

  test("WriteIds are independent across tables") {
    val s = new TxnStore
    val t = s.openTxn()
    assert(s.allocateWriteId(t, "a") == 1L)
    assert(s.allocateWriteId(t, "b") == 1L)
  }

  test("same txn re-requesting a WriteId gets the same value") {
    val s = new TxnStore
    val t = s.openTxn()
    assert(s.allocateWriteId(t, "a") == s.allocateWriteId(t, "a"))
  }

  test("snapshot excludes open transactions") {
    val s = new TxnStore
    val t1 = s.openTxn(); s.commit(t1)
    val t2 = s.openTxn()
    val snap = s.txnList()
    assert(snap.isVisible(t1) && !snap.isVisible(t2))
  }

  test("snapshot excludes aborted transactions") {
    val s = new TxnStore
    val t1 = s.openTxn(); s.abort(t1)
    assert(!s.txnList().isVisible(t1))
  }

  test("txns above the high watermark are invisible") {
    val s = new TxnStore
    val t1 = s.openTxn(); s.commit(t1)
    val snap = s.txnList()
    val t2 = s.openTxn(); s.commit(t2)
    assert(!snap.isVisible(t2), "txn opened after snapshot must stay invisible")
  }

  test("writeIdList projects invisible txns to invalid WriteIds") {
    val s = new TxnStore
    val t1 = s.openTxn(); s.allocateWriteId(t1, "t"); s.commit(t1)
    val t2 = s.openTxn(); val w2 = s.allocateWriteId(t2, "t") // open
    val t3 = s.openTxn(); val w3 = s.allocateWriteId(t3, "t"); s.abort(t3)
    val wl = s.writeIdList("t", s.txnList())
    assert(wl.isVisible(1L))
    assert(!wl.isVisible(w2) && !wl.isVisible(w3))
  }

  test("a write committed after the snapshot stays invisible to that snapshot") {
    val s = new TxnStore
    val snap = s.txnList()
    val t = s.openTxn(); val w = s.allocateWriteId(t, "t"); s.commit(t)
    val wl = s.writeIdList("t", snap)
    assert(!wl.isVisible(w), "late-committed write leaked into an older snapshot")
  }

  test("rangeVisibility answers ALL, SOME or NONE per WriteId range") {
    import RangeVisibility._
    val clean = WriteIdList("t", 5L, Set.empty)
    assert(clean.rangeVisibility(1, 5) == AllVisible)
    assert(clean.rangeVisibility(5, 5) == AllVisible, "a range ending at the watermark is seen whole")
    assert(clean.rangeVisibility(4, 6) == SomeVisible, "a range crossing the watermark")
    assert(clean.rangeVisibility(6, 6) == NoneVisible, "a write above the watermark")
    assert(clean.rangeVisibility(6, 9) == NoneVisible)

    val holes = WriteIdList("t", 8L, Set(3L, 4L, 8L))
    assert(holes.rangeVisibility(1, 2) == AllVisible)
    assert(holes.rangeVisibility(5, 7) == AllVisible, "invalid ids just outside the range")
    assert(holes.rangeVisibility(3, 3) == NoneVisible, "an invalid single write")
    assert(holes.rangeVisibility(3, 4) == NoneVisible, "a range of invalid ids only")
    assert(holes.rangeVisibility(8, 12) == NoneVisible, "invalid up to the watermark, later above it")
    assert(holes.rangeVisibility(2, 3) == SomeVisible, "an invalid id at the upper end")
    assert(holes.rangeVisibility(4, 5) == SomeVisible, "an invalid id at the lower end")
    assert(holes.rangeVisibility(1, 7) == SomeVisible, "invalid ids inside")
    assert(holes.rangeVisibility(7, 8) == SomeVisible, "an invalid watermark")
    assert(holes.rangeVisibility(5, 9) == SomeVisible)
    assertThrows[IllegalArgumentException](holes.rangeVisibility(3, 2))

    val empty = WriteIdList("t", 0L, Set.empty)
    assert(empty.rangeVisibility(1, 1) == NoneVisible, "a snapshot before the table's first write")
  }

  test("rangeVisibility agrees with isVisible on every id of the range") {
    import RangeVisibility._
    val rnd = new scala.util.Random(7)
    for (_ <- 1 to 500) {
      val hwm = rnd.nextInt(12).toLong
      val snap = WriteIdList("t", hwm, (1L to hwm).filter(_ => rnd.nextInt(3) == 0).toSet)
      val lo = 1L + rnd.nextInt(14)
      val hi = lo + rnd.nextInt(5)
      val seen = (lo to hi).map(snap.isVisible)
      val expected = if (seen.forall(identity)) AllVisible else if (seen.exists(identity)) SomeVisible else NoneVisible
      assert(snap.rangeVisibility(lo, hi) == expected, s"$snap [$lo, $hi]")
    }
  }

  test("commit makes writes visible to later snapshots") {
    val s = new TxnStore
    val t = s.openTxn(); val w = s.allocateWriteId(t, "t"); s.commit(t)
    assert(s.writeIdList("t", s.txnList()).isVisible(w))
  }

  test("first-commit-wins: second concurrent updater aborts") {
    val s = new TxnStore
    val t1 = s.openTxn(); val t2 = s.openTxn()
    s.recordWriteSet(t1, "t", "p1", WriteKind.Update)
    s.recordWriteSet(t2, "t", "p1", WriteKind.Update)
    s.commit(t1)
    assertThrows[TxnConflictException](s.commit(t2))
    assert(s.isAborted(t2))
  }

  test("concurrent updates to different partitions do not conflict") {
    val s = new TxnStore
    val t1 = s.openTxn(); val t2 = s.openTxn()
    s.recordWriteSet(t1, "t", "p1", WriteKind.Update)
    s.recordWriteSet(t2, "t", "p2", WriteKind.Update)
    s.commit(t1); s.commit(t2)
    assert(!s.isAborted(t2))
  }

  test("inserts never conflict") {
    val s = new TxnStore
    val t1 = s.openTxn(); val t2 = s.openTxn()
    s.recordWriteSet(t1, "t", "p1", WriteKind.Insert)
    s.recordWriteSet(t2, "t", "p1", WriteKind.Insert)
    s.commit(t1); s.commit(t2)
  }

  test("a commit that happened before the txn opened does not conflict") {
    val s = new TxnStore
    val t1 = s.openTxn()
    s.recordWriteSet(t1, "t", "p1", WriteKind.Update)
    s.commit(t1)
    val t2 = s.openTxn()
    s.recordWriteSet(t2, "t", "p1", WriteKind.Update)
    s.commit(t2) // serial, not concurrent -> fine
  }

  test("openWrites reports only writes of still-open txns") {
    val s = new TxnStore
    val t1 = s.openTxn(); s.allocateWriteId(t1, "t"); s.commit(t1)
    val t2 = s.openTxn(); val w2 = s.allocateWriteId(t2, "t")
    val t3 = s.openTxn(); s.allocateWriteId(t3, "t"); s.abort(t3)
    assert(s.openWrites("t") == Set(w2))
  }

  test("forgetAbortedWrites shrinks the invalid set (compaction history purge)") {
    val s = new TxnStore
    val t1 = s.openTxn(); val w1 = s.allocateWriteId(t1, "t"); s.abort(t1)
    assert(!s.writeIdList("t", s.txnList()).isVisible(w1))
    s.forgetAbortedWrites("t", w1)
    // after the compactor physically removed the aborted rows, the write id
    // no longer needs to be carried in snapshots
    assert(s.writeIdList("t", s.txnList()).invalid.isEmpty)
    assert(!s.txnList().openOrAborted.contains(t1), "no write references t1 any more")

    // an aborted txn that wrote two tables stays in every TxnList until both
    // tables have forgotten its writes
    val t2 = s.openTxn()
    val wa = s.allocateWriteId(t2, "a"); val wb = s.allocateWriteId(t2, "b")
    s.abort(t2)
    s.forgetAbortedWrites("a", wa)
    assert(s.writeIdList("a", s.txnList()).invalid.isEmpty)
    assert(s.txnList().openOrAborted.contains(t2), "table b still holds an aborted write of t2")
    assert(!s.writeIdList("b", s.txnList()).isVisible(wb))
    s.forgetAbortedWrites("b", wb)
    assert(!s.txnList().openOrAborted.contains(t2))
    assert(s.writeIdList("b", s.txnList()).invalid.isEmpty)
  }

  test("operations on closed txns are rejected") {
    val s = new TxnStore
    val t = s.openTxn(); s.commit(t)
    assertThrows[IllegalArgumentException](s.commit(t))
    assertThrows[IllegalArgumentException](s.abort(t))
    assertThrows[IllegalArgumentException](s.allocateWriteId(t, "t"))
    assertThrows[IllegalArgumentException](s.recordWriteSet(t, "t", "", WriteKind.Insert))
  }
}
