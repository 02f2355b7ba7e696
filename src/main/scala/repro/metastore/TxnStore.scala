package repro.metastore

import scala.collection.mutable

/** Logical snapshot of the transaction state, taken by HS2 at query start
  * (§3.2): the highest allocated TxnId (high watermark), the open and
  * aborted transactions at or below it, and per table the [[WriteIdList]]
  * they imply: the table's highest allocated WriteId and the WriteIds of
  * the listed transactions, as Hive's `ValidTxnWriteIdList` records them.
  * Its size is bounded by the live transactions and the tables written,
  * not by the committed history.
  */
final case class TxnList(highWatermark: Long, openOrAborted: Set[Long], tables: Map[String, WriteIdList])

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
  * optimistic first-commit-wins conflict resolution over the (table,
  * partition) pairs that updates and deletes wrote.
  *
  * Only live transactions have a record: an open one until it commits or
  * aborts, an aborted one until compaction has forgotten all its writes
  * ([[forgetAbortedWrites]]). Besides those records the store keeps one
  * WriteId watermark per table and one commit sequence number per updated
  * or deleted (table, partition); no state grows with committed
  * transactions, so snapshots cost O(tables + live writes) and a commit
  * O(its write set).
  */
final class TxnStore {
  import TxnStore.OpenTxn

  private var nextTxn = 0L
  private var commitSeq = 0L
  /** table -> highest allocated WriteId */
  private val lastWriteId = mutable.Map[String, Long]()
  private val open = mutable.Map[Long, OpenTxn]()
  /** aborted txn -> the WriteIds (table -> writeId) compaction has not yet
    * forgotten */
  private val aborted = mutable.Map[Long, mutable.Map[String, Long]]()
  /** (table, partition) -> commit sequence number of its last committed
    * update or delete */
  private val lastUpdate = mutable.Map[(String, String), Long]()

  // ---- transaction lifecycle ----

  def openTxn(): Long = synchronized {
    nextTxn += 1
    open(nextTxn) = new OpenTxn(commitSeq)
    nextTxn
  }

  private def openRecord(txn: Long): OpenTxn = {
    require(open.contains(txn), s"txn $txn is not open")
    open(txn)
  }

  /** Allocates (or returns the already-allocated) WriteId of `txn` on `table`. */
  def allocateWriteId(txn: Long, table: String): Long = synchronized {
    openRecord(txn).writeIds.getOrElseUpdate(table, {
      val w = lastWriteId.getOrElse(table, 0L) + 1
      lastWriteId(table) = w
      w
    })
  }

  /** Records a (table, partition) into the txn's write set for conflict
    * detection; partition is "" for unpartitioned tables. Inserts never
    * conflict, so an Insert only checks that the txn is open. */
  def recordWriteSet(txn: Long, table: String, partition: String, kind: WriteKind.Value): Unit =
    synchronized {
      val t = openRecord(txn)
      if (kind != WriteKind.Insert) t.updated += ((table, partition))
    }

  /** Commits `txn`, applying first-commit-wins: if a concurrent transaction
    * already committed an update/delete to an overlapping (table, partition),
    * this transaction aborts with [[TxnConflictException]]. */
  def commit(txn: Long): Unit = synchronized {
    val t = openRecord(txn)
    t.updated.find(lastUpdate.get(_).exists(_ > t.startSeq)).foreach { case (table, p) =>
      doAbort(txn)
      throw new TxnConflictException(
        s"txn $txn aborted: concurrent committed write to $table/$p (first commit wins)")
    }
    commitSeq += 1
    t.updated.foreach(lastUpdate(_) = commitSeq)
    open -= txn
  }

  def abort(txn: Long): Unit = synchronized {
    openRecord(txn)
    doAbort(txn)
  }

  private def doAbort(txn: Long): Unit =
    aborted(txn) = open.remove(txn).get.writeIds

  def isOpen(txn: Long): Boolean = synchronized(open.contains(txn))

  // ---- snapshots ----

  /** Global snapshot for Snapshot Isolation: taken once per query. */
  def txnList(): TxnList = synchronized {
    val invalid = (open.valuesIterator.map(_.writeIds) ++ aborted.valuesIterator)
      .flatten.toSeq.groupMap(_._1)(_._2)
    TxnList(nextTxn, (open.keySet ++ aborted.keySet).toSet, lastWriteId.map { case (table, hwm) =>
      table -> WriteIdList(table, hwm, invalid.getOrElse(table, Nil).toSet)
    }.toMap)
  }

  /** Per-table WriteId list of a transaction list (§3.2): the table's
    * WriteId watermark when `txns` was taken, and the WriteIds of the open
    * and aborted transactions it lists. A write allocated later lies above
    * the watermark, so it stays invisible to `txns` whoever commits it. */
  def writeIdList(table: String, txns: TxnList): WriteIdList =
    txns.tables.getOrElse(table, WriteIdList(table, 0L, Set.empty))

  /** WriteIds on `table` that belong to still-open transactions. The
    * compactor must not fold anything at or above the lowest of these. */
  def openWrites(table: String): Set[Long] = synchronized {
    open.valuesIterator.flatMap(_.writeIds.get(table)).toSet
  }

  /** Forgets aborted writes at or below `upTo` on `table` after compaction
    * physically removed their records, then every aborted transaction with
    * no write left: future snapshots and transaction lists shrink ("major
    * compaction deletes history"). */
  def forgetAbortedWrites(table: String, upTo: Long): Unit = synchronized {
    aborted.filterInPlace { (_, writeIds) =>
      if (writeIds.get(table).exists(_ <= upTo)) writeIds -= table
      writeIds.nonEmpty
    }
  }
}

object TxnStore {
  /** An open transaction: the commit sequence number when it began, its
    * WriteId per table, and the (table, partition) pairs it updated or
    * deleted. */
  private final class OpenTxn(val startSeq: Long) {
    val writeIds = mutable.Map[String, Long]()
    val updated = mutable.Set[(String, String)]()
  }
}
