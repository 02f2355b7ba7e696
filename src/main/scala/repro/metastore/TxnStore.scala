package repro.metastore

import scala.collection.mutable

/** Logical snapshot of the transaction state, taken by HS2 at query start
  * (§3.2): the highest allocated TxnId (high watermark) plus the set of
  * open and aborted transactions at or below it.
  */
final case class TxnList(highWatermark: Long, openOrAborted: Set[Long]) {
  /** A transaction's effects are visible iff it is at or below the high
    * watermark and neither open nor aborted. */
  def isVisible(txnId: Long): Boolean =
    txnId <= highWatermark && !openOrAborted.contains(txnId)
}

/** Per-table projection of a [[TxnList]] onto WriteIds. Readers bind one of
  * these to every scan at compile time and skip records whose WriteId is
  * above the watermark or belongs to an open/aborted transaction: whole
  * directories by [[rangeVisibility]], rows only in a directory the list
  * sees in part. Keeping a
  * per-table list (rather than the global TxnList) keeps reader state small
  * when many transactions are open across other tables.
  */
final case class WriteIdList(table: String, highWatermark: Long, invalid: Set[Long]) {
  import RangeVisibility._

  def isVisible(writeId: Long): Boolean =
    writeId <= highWatermark && !invalid.contains(writeId)

  /** How much of the WriteId range [lo, hi] this snapshot sees, as Hive's
    * `ValidWriteIdList.isWriteIdRangeValid` answers it per directory:
    * [[AllVisible]] when every id is at or below the watermark and none is
    * invalid, [[NoneVisible]] when no id is both, else [[SomeVisible]]. */
  def rangeVisibility(lo: Long, hi: Long): RangeVisibility.Value = {
    require(lo <= hi, s"empty WriteId range [$lo, $hi]")
    val top = math.min(hi, highWatermark)
    val hidden = invalid.count(w => w >= lo && w <= top)
    if (lo > top || hidden == top - lo + 1) NoneVisible
    else if (hi <= highWatermark && hidden == 0) AllVisible
    else SomeVisible
  }
}

/** A snapshot's view of a WriteId range, see [[WriteIdList.rangeVisibility]]. */
object RangeVisibility extends Enumeration {
  val AllVisible, SomeVisible, NoneVisible = Value
}

/** Kinds of write recorded in a transaction's write set; only updates and
  * deletes participate in conflict detection (inserts never conflict). */
object WriteKind extends Enumeration {
  val Insert, Update, Delete = Value
}

/** Thrown when first-commit-wins conflict resolution aborts a transaction. */
final class TxnConflictException(msg: String) extends RuntimeException(msg)

/** Transaction, write-id and write-set state tables — the part of HMS the
  * ACID implementation is built on (§3.2).
  *
  * TxnIds are global and monotonically increasing; each txn maps to one
  * WriteId per table it writes, also monotonic but table-scoped. Commit uses
  * optimistic first-commit-wins conflict resolution over (table, partition)
  * write sets of updates/deletes.
  */
final class TxnStore {

  private var nextTxn = 0L
  private val open = mutable.Set[Long]()
  private val aborted = mutable.Set[Long]()
  /** txn -> (table -> writeId) */
  private val txnWriteIds = mutable.Map[Long, mutable.Map[String, Long]]()
  /** table -> next write id */
  private val nextWriteId = mutable.Map[String, Long]()
  /** table -> all allocated writeIds and their owning txn. Entries persist
    * after commit so any snapshot can decide visibility of any write; the
    * compactor prunes aborted entries, and with the last of them the
    * aborted txn itself, via [[forgetAbortedWrites]]. */
  private val tableWrites = mutable.Map[String, mutable.Map[Long, Long]]() // writeId -> txnId
  /** committed write sets: (table, partition, kind, commitSeq) */
  private val committedWriteSets = mutable.ArrayBuffer[(String, String, WriteKind.Value, Long)]()
  /** pending write sets of open txns: txn -> entries */
  private val pendingWriteSets = mutable.Map[Long, mutable.ArrayBuffer[(String, String, WriteKind.Value)]]()
  private var commitSeq = 0L
  /** commit sequence assigned when each txn began (for conflict windows). */
  private val txnStartSeq = mutable.Map[Long, Long]()

  // ---- transaction lifecycle ----

  def openTxn(): Long = synchronized {
    nextTxn += 1
    open += nextTxn
    txnStartSeq(nextTxn) = commitSeq
    nextTxn
  }

  /** Allocates (or returns the already-allocated) WriteId of `txn` on `table`. */
  def allocateWriteId(txn: Long, table: String): Long = synchronized {
    require(open.contains(txn), s"txn $txn is not open")
    val perTable = txnWriteIds.getOrElseUpdate(txn, mutable.Map.empty)
    perTable.getOrElseUpdate(table, {
      val w = nextWriteId.getOrElse(table, 0L) + 1
      nextWriteId(table) = w
      tableWrites.getOrElseUpdate(table, mutable.Map.empty)(w) = txn
      w
    })
  }

  /** Records a (table, partition) into the txn's write set for conflict
    * detection; partition is "" for unpartitioned tables. */
  def recordWriteSet(txn: Long, table: String, partition: String, kind: WriteKind.Value): Unit =
    synchronized {
      require(open.contains(txn), s"txn $txn is not open")
      pendingWriteSets.getOrElseUpdate(txn, mutable.ArrayBuffer.empty) += ((table, partition, kind))
    }

  /** Commits `txn`, applying first-commit-wins: if a concurrent transaction
    * already committed an update/delete to an overlapping (table, partition),
    * this transaction aborts with [[TxnConflictException]]. */
  def commit(txn: Long): Unit = synchronized {
    require(open.contains(txn), s"txn $txn is not open")
    val mine = pendingWriteSets.getOrElse(txn, mutable.ArrayBuffer.empty)
    val conflictable = mine.filter(e => e._3 == WriteKind.Update || e._3 == WriteKind.Delete)
    if (conflictable.nonEmpty) {
      val startSeq = txnStartSeq(txn)
      val clash = committedWriteSets.find { case (t, p, k, seq) =>
        seq > startSeq &&
          (k == WriteKind.Update || k == WriteKind.Delete) &&
          conflictable.exists(e => e._1 == t && e._2 == p)
      }
      clash.foreach { case (t, p, _, _) =>
        doAbort(txn)
        throw new TxnConflictException(
          s"txn $txn aborted: concurrent committed write to $t/$p (first commit wins)")
      }
    }
    commitSeq += 1
    mine.foreach { case (t, p, k) => committedWriteSets += ((t, p, k, commitSeq)) }
    open -= txn
    cleanupTxn(txn)
  }

  def abort(txn: Long): Unit = synchronized {
    require(open.contains(txn), s"txn $txn is not open")
    doAbort(txn)
  }

  private def doAbort(txn: Long): Unit = {
    open -= txn
    aborted += txn
    cleanupTxn(txn)
  }

  private def cleanupTxn(txn: Long): Unit = {
    pendingWriteSets.remove(txn)
    txnStartSeq.remove(txn)
  }

  def isOpen(txn: Long): Boolean = synchronized(open.contains(txn))
  def isAborted(txn: Long): Boolean = synchronized(aborted.contains(txn))

  // ---- snapshots ----

  /** Global snapshot for Snapshot Isolation: taken once per query. */
  def txnList(): TxnList = synchronized {
    TxnList(nextTxn, (open.toSet ++ aborted.toSet).filter(_ <= nextTxn))
  }

  /** Per-table WriteId list derived from a transaction list (§3.2). A write
    * is invalid iff its owning transaction is invisible under `txns` — this
    * covers open, aborted, and late (allocated-after-snapshot) writes alike. */
  def writeIdList(table: String, txns: TxnList): WriteIdList = synchronized {
    val hwm = nextWriteId.getOrElse(table, 0L)
    val invalid = tableWrites.getOrElse(table, mutable.Map.empty).collect {
      case (w, t) if !txns.isVisible(t) => w
    }.toSet
    WriteIdList(table, hwm, invalid)
  }

  /** WriteIds on `table` that belong to still-open transactions. The
    * compactor must not fold anything at or above the lowest of these. */
  def openWrites(table: String): Set[Long] = synchronized {
    tableWrites.getOrElse(table, mutable.Map.empty).collect {
      case (w, t) if open.contains(t) => w
    }.toSet
  }

  /** Forgets aborted writes at or below `upTo` on `table` after compaction
    * physically removed their records, then every aborted transaction that
    * no table's writes still reference: future snapshots and transaction
    * lists shrink ("major compaction deletes history"). */
  def forgetAbortedWrites(table: String, upTo: Long): Unit = synchronized {
    tableWrites.get(table).foreach(_.filterInPlace { (w, t) =>
      !(w <= upTo && aborted.contains(t))
    })
    val referenced = tableWrites.valuesIterator.flatMap(_.valuesIterator).filter(aborted.contains).toSet
    aborted.filterInPlace(referenced.contains)
  }
}
