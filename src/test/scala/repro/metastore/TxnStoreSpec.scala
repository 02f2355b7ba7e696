package repro.metastore

import java.util.concurrent.{CyclicBarrier, TimeUnit}

import scala.collection.mutable
import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

class TxnStoreSpec extends AnyFunSuite {
  import TxnStoreSpec._

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
    assert(isVisible(snap, t1) && !isVisible(snap, t2))
  }

  test("snapshot excludes aborted transactions") {
    val s = new TxnStore
    val t1 = s.openTxn(); s.abort(t1)
    assert(!isVisible(s.txnList(), t1))
  }

  test("txns above the high watermark are invisible") {
    val s = new TxnStore
    val t1 = s.openTxn(); s.commit(t1)
    val snap = s.txnList()
    val t2 = s.openTxn(); s.commit(t2)
    assert(!isVisible(snap, t2), "txn opened after snapshot must stay invisible")
  }

  test("writeIdList projects invisible txns to invalid WriteIds") {
    val s = new TxnStore
    val t1 = s.openTxn(); s.allocateWriteId(t1, "t"); s.commit(t1)
    val t2 = s.openTxn(); val w2 = s.allocateWriteId(t2, "t") // open
    val t3 = s.openTxn(); val w3 = s.allocateWriteId(t3, "t"); s.abort(t3)
    val wl = s.writeIdList("t", s.txnList())
    assert(sees(wl, 1L))
    assert(!sees(wl, w2) && !sees(wl, w3))
  }

  test("a write committed after the snapshot stays invisible to that snapshot") {
    val s = new TxnStore
    val snap = s.txnList()
    val t = s.openTxn(); val w = s.allocateWriteId(t, "t"); s.commit(t)
    val wl = s.writeIdList("t", snap)
    assert(!sees(wl, w), "late-committed write leaked into an older snapshot")
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
      val seen = (lo to hi).map(isVisible(snap, _))
      val expected = if (seen.forall(identity)) AllVisible else if (seen.exists(identity)) SomeVisible else NoneVisible
      assert(snap.rangeVisibility(lo, hi) == expected, s"$snap [$lo, $hi]")
    }
  }

  test("commit makes writes visible to later snapshots") {
    val s = new TxnStore
    val t = s.openTxn(); val w = s.allocateWriteId(t, "t"); s.commit(t)
    assert(sees(s.writeIdList("t", s.txnList()), w))
  }

  test("first-commit-wins: second concurrent updater aborts") {
    val s = new TxnStore
    val t1 = s.openTxn(); val t2 = s.openTxn()
    s.recordWriteSet(t1, "t", "p1", WriteKind.Update)
    s.recordWriteSet(t2, "t", "p1", WriteKind.Update)
    s.commit(t1)
    assertThrows[TxnConflictException](s.commit(t2))
    assert(isAborted(s, t2))
  }

  test("concurrent updates to different partitions do not conflict") {
    val s = new TxnStore
    val t1 = s.openTxn(); val t2 = s.openTxn()
    s.recordWriteSet(t1, "t", "p1", WriteKind.Update)
    s.recordWriteSet(t2, "t", "p2", WriteKind.Update)
    s.commit(t1); s.commit(t2)
    assert(!isAborted(s, t2))
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
    assert(!sees(s.writeIdList("t", s.txnList()), w1))
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
    assert(!sees(s.writeIdList("b", s.txnList()), wb))
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

  test("a seeded random history agrees with a model that keeps the whole history") {
    val rnd = new Random(20)
    val store = new TxnStore
    val model = new HistoryModel
    val tables = Seq("a", "b")
    val parts = Seq("p0", "p1", "p2")
    val kept = mutable.ArrayBuffer[(TxnList, Snap, Int)]()
    val seen = mutable.Map[String, Int]().withDefaultValue(0)

    def check(snap: TxnList, ms: Snap, what: String): Unit = {
      assert(snap.highWatermark == ms.highWatermark, what)
      assert(snap.openOrAborted == ms.listed, what)
      for (table <- tables; w <- 1L to model.lastWriteId.getOrElse(table, 0L) + 1) {
        assert(sees(store.writeIdList(table, snap), w) == model.visible(ms, table, w),
          s"$what: $table WriteId $w")
      }
    }

    for (step <- 1 to 2000) {
      val open = model.open.toSeq.sorted
      def anyOpen = open(rnd.nextInt(open.size))
      rnd.nextInt(10) match {
        case 0 | 1 if open.size < 4 =>
          assert(store.openTxn() == model.openTxn())
        case 2 if open.nonEmpty =>
          val (txn, table) = (anyOpen, tables(rnd.nextInt(2)))
          assert(store.allocateWriteId(txn, table) == model.allocate(txn, table), s"step $step")
        case 3 | 4 if open.nonEmpty =>
          val (txn, table, part) = (anyOpen, tables(rnd.nextInt(2)), parts(rnd.nextInt(3)))
          val kind = WriteKind(rnd.nextInt(WriteKind.maxId))
          store.recordWriteSet(txn, table, part, kind)
          model.record(txn, table, part, kind)
        case 5 if open.nonEmpty =>
          val txn = anyOpen
          val commits = model.commit(txn)
          if (commits) { store.commit(txn); seen("commit") += 1 }
          else { assertThrows[TxnConflictException](store.commit(txn)); seen("conflict") += 1 }
          assert(isAborted(store, txn) == !commits, s"step $step")
        case 6 if open.nonEmpty =>
          val txn = anyOpen
          store.abort(txn); model.abort(txn)
          seen("abort") += 1
        case 7 =>
          val table = tables(rnd.nextInt(2))
          val upTo = rnd.nextInt(model.lastWriteId.getOrElse(table, 0L).toInt + 2).toLong
          store.forgetAbortedWrites(table, upTo); model.forget(table, upTo)
          seen("forget") += 1
        case 8 =>
          val taken = (store.txnList(), model.snapshot(), step)
          if (kept.size < 8) kept += taken else kept(rnd.nextInt(8)) = taken
        case _ if kept.nonEmpty =>
          val (snap, ms, at) = kept(rnd.nextInt(kept.size))
          check(snap, ms, s"step $step, snapshot of step $at")
          seen("age") = seen("age") max (step - at)
        case _ =>
      }
      check(store.txnList(), model.snapshot(), s"step $step, fresh snapshot")
      for (table <- tables)
        assert(store.openWrites(table) == model.open.flatMap(model.writeIds(_).get(table)), s"step $step")
    }
    assert(seen("commit") > 100 && seen("conflict") > 10 && seen("abort") > 10 && seen("forget") > 50, seen)
    assert(seen("age") > 200, "no snapshot was queried long after it was taken")
  }

  test("lost updates never commit: four threads increment counters through first-commit-wins") {
    val store = new TxnStore
    val (threads, rounds, parts) = (4, 200, 3)
    val counters = Array.fill(parts)(0L)
    val committed = Array.fill(parts)(0L)
    val lock = new Object
    // all four read before any commits, and a round opens only after the
    // last one committed: each round of each partition has one winner
    val read = new CyclicBarrier(threads)
    val written = new CyclicBarrier(threads)
    val choice = Array.tabulate(threads) { i =>
      val rnd = new Random(100 + i)
      Array.fill(rounds)(rnd.nextInt(parts))
    }
    val failures = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]()
    val workers = (0 until threads).map { i =>
      new Thread(() =>
        try {
          for (r <- 0 until rounds) {
            val p = choice(i)(r)
            val (txn, seen) = lock.synchronized { val t = store.openTxn(); (t, counters(p)) }
            store.recordWriteSet(txn, "t", s"p$p", WriteKind.Update)
            store.allocateWriteId(txn, "t")
            read.await(30, TimeUnit.SECONDS)
            lock.synchronized {
              try { store.commit(txn); counters(p) = seen + 1; committed(p) += 1 }
              catch { case _: TxnConflictException => }
            }
            written.await(30, TimeUnit.SECONDS)
          }
        } catch { case e: Throwable => failures.add(e); read.reset(); written.reset() })
    }
    workers.foreach(_.start()); workers.foreach(_.join())
    assert(failures.isEmpty, failures)
    assert(counters.toSeq == committed.toSeq, "a lost update committed")
    val winners = (0 until rounds).map(r => (0 until threads).map(choice(_)(r)).distinct.size).sum
    assert(committed.sum == winners, "a commit was refused without a concurrent update")
    store.forgetAbortedWrites("t", Long.MaxValue)
    val after = store.txnList()
    assert(after.openOrAborted.isEmpty && store.writeIdList("t", after).invalid.isEmpty,
      "committed and forgotten transactions left state behind")
  }
}

private object TxnStoreSpec {
  /** The scalar visibility rule, the reference `rangeVisibility` is checked
    * against: an id is seen iff it is at or below the watermark and not
    * listed as open or aborted. */
  def isVisible(snap: TxnList, txn: Long): Boolean =
    txn <= snap.highWatermark && !snap.openOrAborted.contains(txn)
  def isVisible(snap: WriteIdList, w: Long): Boolean =
    w <= snap.highWatermark && !snap.invalid.contains(w)

  /** Whether `snap` sees write `w`, by the program's one rule. */
  def sees(snap: WriteIdList, w: Long): Boolean =
    snap.rangeVisibility(w, w) == RangeVisibility.AllVisible

  /** An aborted transaction is listed in every new snapshot but no longer
    * open (until compaction forgets its last write). */
  def isAborted(s: TxnStore, txn: Long): Boolean =
    !s.isOpen(txn) && s.txnList().openOrAborted.contains(txn)

  sealed trait Fate
  case object Open extends Fate
  case object Committed extends Fate
  case object Aborted extends Fate

  /** What a snapshot of the model froze: the fates, each table's highest
    * WriteId and the aborted WriteIds already forgotten. */
  final case class Snap(
      highWatermark: Long, listed: Set[Long], fates: Map[Long, Fate],
      lastWriteId: Map[String, Long], forgotten: Set[(String, Long)])

  /** The store as Snapshot Isolation defines it, over the whole history:
    * every WriteId's owner, every transaction's fate and every committed
    * write set, scanned in full. */
  final class HistoryModel {
    var nextTxn = 0L
    private var commitSeq = 0L
    val fate = mutable.Map[Long, Fate]()
    private val startSeq = mutable.Map[Long, Long]()
    val writeIds = mutable.Map[Long, mutable.Map[String, Long]]()
    val owner = mutable.Map[(String, Long), Long]()
    val lastWriteId = mutable.Map[String, Long]()
    private val updated = mutable.Map[Long, mutable.Set[(String, String)]]()
    private val committedWrites = mutable.ArrayBuffer[(String, String, Long)]()
    private val forgotten = mutable.Set[(String, Long)]()
    /** aborted txns still listed: dropped by the first forget after the
      * last of their writes is forgotten */
    private val listedAborted = mutable.Set[Long]()

    def open: Set[Long] = fate.collect { case (t, Open) => t }.toSet
    def listed: Set[Long] = open ++ listedAborted

    def openTxn(): Long = {
      nextTxn += 1
      fate(nextTxn) = Open; startSeq(nextTxn) = commitSeq
      writeIds(nextTxn) = mutable.Map.empty; updated(nextTxn) = mutable.Set.empty
      nextTxn
    }

    def allocate(txn: Long, table: String): Long = writeIds(txn).getOrElseUpdate(table, {
      val w = lastWriteId.getOrElse(table, 0L) + 1
      lastWriteId(table) = w; owner((table, w)) = txn
      w
    })

    def record(txn: Long, table: String, partition: String, kind: WriteKind.Value): Unit =
      if (kind != WriteKind.Insert) updated(txn) += ((table, partition))

    /** True when the commit goes through, false when it conflicts. */
    def commit(txn: Long): Boolean = {
      val clash = committedWrites.exists { case (t, p, seq) =>
        seq > startSeq(txn) && updated(txn)((t, p))
      }
      if (clash) abort(txn)
      else {
        commitSeq += 1
        updated(txn).foreach { case (t, p) => committedWrites += ((t, p, commitSeq)) }
        fate(txn) = Committed
      }
      !clash
    }

    def abort(txn: Long): Unit = { fate(txn) = Aborted; listedAborted += txn }

    def forget(table: String, upTo: Long): Unit = {
      forgotten ++= owner.iterator.collect {
        case ((`table`, w), t) if w <= upTo && fate(t) == Aborted => (table, w)
      }
      listedAborted.filterInPlace(t => writeIds(t).exists(e => !forgotten(e)))
    }

    def snapshot(): Snap = Snap(nextTxn, listed, fate.toMap, lastWriteId.toMap, forgotten.toSet)

    /** A WriteId is visible to a snapshot when it was allocated before the
      * snapshot by a transaction that had committed, or it is an aborted
      * write compaction had already forgotten. */
    def visible(s: Snap, table: String, w: Long): Boolean =
      w <= s.lastWriteId.getOrElse(table, 0L) &&
        (s.fates(owner((table, w))) == Committed || s.forgotten((table, w)))
  }
}
