package perfbench

import java.io.File

import scala.collection.mutable
import scala.util.Random
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.acid.{AcidTable, Compactor}
import repro.metastore.{Catalog, TableDesc, TxnStore, WriteKind}

/** Serial model of the `acid_mixed` table: id -> (grp, amount). Every
  * committed write is applied here too, so a snapshot read must equal the
  * model's aggregate. */
final class AcidModel {
  val rows = mutable.HashMap[Long, (Int, Long)]()

  def insert(fresh: Seq[(Long, Int, Long)]): Unit = fresh.foreach { case (id, g, a) =>
    require(!rows.contains(id), s"duplicate id $id"); rows(id) = (g, a)
  }
  def update(lo: Long, hi: Long, delta: Long): Unit =
    (lo until hi).foreach(id => rows.get(id).foreach { case (g, a) => rows(id) = (g, a + delta) })
  def delete(lo: Long, hi: Long): Unit = (lo until hi).foreach(rows.remove)
  /** MERGE on id: matched rows take the source amount, others are inserted. */
  def merge(source: Seq[(Long, Int, Long)]): Unit = source.foreach { case (id, g, a) =>
    rows.get(id) match {
      case Some((tg, _)) => rows(id) = (tg, a)
      case None          => rows(id) = (g, a)
    }
  }

  /** (row count, sum of amount, sum of id) — what every read checks. */
  def aggregate: (Long, Long, Long) =
    (rows.size.toLong, rows.valuesIterator.map(_._2).sum, rows.keysIterator.sum)
}

object AcidMixedWorkload {
  /** Every partition directory costs each read and write one Spark job per
    * store directory at this commit, so the partition count sets the cost
    * of every operation. */
  val Partitions = 2
  val BaseRows = 100000
  val PreloadedTxns = 10000
  /** One cycle of the operation stream: 40% reads, 20% inserts, 15%
    * updates, 10% deletes, 15% merges. The seed draws the rows of every
    * operation; the order of kinds is fixed, so every run reads at the same
    * points of the compaction cycle and read latency is comparable across
    * runs. */
  val Cycle: Seq[String] = Seq(
    "insert", "read", "update", "merge", "read", "delete", "read", "insert", "merge", "read",
    "update", "read", "insert", "delete", "read", "merge", "read", "update", "insert", "read")
  val InsertRows = 200
  val UpdateRange = 100
  val DeleteRange = 30
  val MergeRows = 100
  /** Minor compaction runs when a partition holds this many delta dirs. */
  val MinorThreshold = 4
  /** Major compaction after every this many writes. */
  val MajorEvery = 6

  def amountOf(id: Long): Long = id % 1000
  def groupOf(id: Long): Int = (id % Partitions).toInt

}

/** `acid_mixed`: one partitioned ACID table under a seeded closed-loop stream
  * of snapshot reads and insert/update/delete/merge transactions, run in
  * whole cycles of [[AcidMixedWorkload.Cycle]], with inline
  * minor compaction and major compaction on a fixed cadence. Set-up preloads
  * [[AcidMixedWorkload.PreloadedTxns]] committed transactions on the table so
  * the metastore carries a long history. */
final class AcidMixedWorkload(spark: SparkSession, work: File) extends Workload {
  import AcidMixedWorkload._

  private implicit val session: SparkSession = spark
  val TableName = "acid_mixed"
  private val catalog = new Catalog
  private def store: TxnStore = catalog.txns
  private var table: AcidTable = _
  private var compactor: Compactor = _
  private val model = new AcidModel
  private var nextId = 0L
  /** Write transactions attempted; the major-compaction cadence counts them. */
  private var writes = 0
  /** Merges run so far; they take turns on the partition they update. */
  private var merges = 0
  private var root: File = _
  /** One cycle of 20 operations took 30 s. */
  val roundSeconds = 30.0

  private val schema = StructType(Seq(
    StructField("id", LongType), StructField("grp", IntegerType), StructField("amount", LongType)))

  def setup(): Unit = {
    root = new File(work, TableName)
    catalog.createTable(TableDesc(TableName, schema, root.getAbsolutePath, partitionCol = Some("grp")))
    table = new AcidTable(catalog, TableName)
    compactor = new Compactor(table)
    Bench.phase("preload txns")((1 to PreloadedTxns).foreach { _ =>
      val txn = store.openTxn()
      store.allocateWriteId(txn, TableName)
      store.recordWriteSet(txn, TableName, "", WriteKind.Insert)
      store.commit(txn)
    })
    Bench.phase("base insert") {
      val txn = store.openTxn()
      table.insert(txn, frame(0L, BaseRows))
      store.commit(txn)
    }
    model.insert(rowsOf(0L, BaseRows))
    nextId = BaseRows
    // warm-up on the measured path: an update writes delete markers and a
    // delta, the code paths of every write; the compaction folds the base
    // insert and the update into a base
    val rnd = new Random(-1L)
    Seq("read", "update", "read").foreach(op =>
      Bench.phase(s"warm-up $op")(runOp(op, rnd, new Tracer(false), new Outcomes)))
    Bench.phase("warm-up compaction")(compactor.majorCompact())
  }

  private def rowsOf(from: Long, n: Int): Seq[(Long, Int, Long)] =
    (from until from + n).map(id => (id, groupOf(id), amountOf(id)))

  private def frameOf(rows: Seq[(Long, Int, Long)]): DataFrame =
    spark.createDataFrame(java.util.Arrays.asList(rows.map { case (id, g, a) => Row(id, g, a) }: _*), schema)

  private def frame(from: Long, n: Int): DataFrame =
    spark.range(from, from + n).select(
      col("id"), (col("id") % Partitions).cast(IntegerType).as("grp"), (col("id") % 1000).as("amount"))

  def measure(rounds: Int, rnd: Random, t: Tracer, out: Outcomes): Unit =
    (1 to rounds).foreach(_ => Cycle.foreach(op => runOp(op, rnd, t, out)))

  private def runOp(op: String, rnd: Random, t: Tracer, out: Outcomes): Unit = {
    if (t.enabled && op == "read") t.observe("acid.store_dirs", table.storeDirCount)
    val t0 = System.nanoTime()
    if (op == "read") {
      val got = try {
        val snap = t.span("metastore.snapshot")(table.currentSnapshot())
        if (t.enabled) t.observe("metastore.invalid_writeids", snap.invalid.size)
        Some(t.span("acid.read") {
          table.read(snap).agg(count(lit(1)), sum("amount"), sum("id")).collect().head
        })
      } catch {
        case NonFatal(e) => Console.err.println(s"[perfbench] read failed: $e"); None
      }
      // the model's aggregate is checked after the clock stops
      val ms = (System.nanoTime() - t0) / 1e6
      out.read(ms, got.exists { r =>
        (r.getLong(0), if (r.isNullAt(1)) 0L else r.getLong(1), if (r.isNullAt(2)) 0L else r.getLong(2)) ==
          model.aggregate
      })
    } else {
      writes += 1
      val ok = try { write(op, rnd, t); true } catch {
        case NonFatal(e) => Console.err.println(s"[perfbench] $op failed: $e"); false
      }
      out.write((System.nanoTime() - t0) / 1e6, ok)
      compact(t)
    }
  }

  /** One write transaction: snapshot, write, commit. The model follows only
    * once the commit succeeded. */
  private def write(op: String, rnd: Random, t: Tracer): Unit = {
    val txn = store.openTxn()
    try {
      t.span("metastore.snapshot")(table.currentSnapshot())
      val apply: () => Unit = t.span(s"acid.$op") {
        op match {
          case "insert" =>
            val from = nextId; nextId += InsertRows
            table.insert(txn, frame(from, InsertRows))
            () => model.insert(rowsOf(from, InsertRows))
          case "update" =>
            val lo = (rnd.nextDouble() * nextId).toLong
            table.update(txn, col("id") >= lo && col("id") < lo + UpdateRange,
              Map("amount" -> (col("amount") + 7)))
            () => model.update(lo, lo + UpdateRange, 7)
          case "delete" =>
            val lo = (rnd.nextDouble() * nextId).toLong
            table.delete(txn, col("id") >= lo && col("id") < lo + DeleteRange)
            () => model.delete(lo, lo + DeleteRange)
          case "merge" =>
            // Half the source rows exist, all in one partition; the other
            // half are new, in the other partitions. A MERGE that updates
            // and inserts in the same partition fails at this commit; the
            // probe `acid.merge_same_part_fails` keeps that visible.
            val p = merges % Partitions; merges += 1
            val matched = Iterator.iterate(nextId - 1)(_ - 1).takeWhile(_ >= 0)
              .filter(id => groupOf(id) == p && model.rows.contains(id)).take(MergeRows / 2).toSeq
            val fresh = (nextId until nextId + MergeRows).filter(groupOf(_) != p).take(MergeRows / 2)
            nextId += MergeRows
            val src = (matched ++ fresh).map(id => (id, groupOf(id), amountOf(id) + 1))
            table.merge(txn, frameOf(src), col("t.id") === col("s.id"),
              matchedSet = Map("amount" -> col("s.amount")))
            () => model.merge(src)
        }
      }
      t.span("metastore.commit")(store.commit(txn))
      apply()
    } catch {
      case NonFatal(e) => if (store.isOpen(txn)) store.abort(txn); throw e
    }
  }

  /** Inline compaction after a write: minor when a partition has enough
    * deltas, major on a fixed cadence. */
  private def compact(t: Tracer): Unit = {
    val major = writes % MajorEvery == 0
    if (major || compactor.shouldCompact(MinorThreshold)) {
      // the directory walk is tracing work, kept out of the untraced phase
      val before = if (t.enabled) dirSizes() else Map.empty[String, Long]
      if (major) t.span("acid.compact_major")(compactor.majorCompact())
      else t.span("acid.compact_minor")(compactor.minorCompact())
      if (t.enabled) {
        t.count("acid.compactions", 1)
        val after = dirSizes()
        t.count("acid.bytes_rewritten_mb", after.collect { case (d, b) if !before.contains(d) => b }.sum / 1e6)
      }
    }
  }

  /** Bytes of every store sub-directory (base, delta, delete delta). */
  private def dirSizes(): Map[String, Long] =
    Option(root.listFiles()).toSeq.flatten.filter(_.isDirectory)
      .flatMap(p => Option(p.listFiles()).toSeq.flatten.filter(_.isDirectory))
      .map(d => d.getPath -> bytesUnder(d)).toMap

  private def bytesUnder(f: File): Long =
    if (f.isFile) f.length() else Option(f.listFiles()).toSeq.flatten.map(bytesUnder).sum

  def layerMetrics(t: Tracer, out: Outcomes): Map[String, Double] = Map(
    "acid.read_ms" -> t.meanMs("acid.read"),
    "acid.store_dirs" -> t.mean("acid.store_dirs"),
    "acid.insert_ms" -> t.meanMs("acid.insert"),
    "acid.update_ms" -> t.meanMs("acid.update"),
    "acid.delete_ms" -> t.meanMs("acid.delete"),
    "acid.merge_ms" -> t.meanMs("acid.merge"),
    "acid.compact_minor_ms" -> t.meanMs("acid.compact_minor"),
    "acid.compact_major_ms" -> t.meanMs("acid.compact_major"),
    "acid.compactions" -> t.counter("acid.compactions"),
    "acid.bytes_rewritten_mb" -> t.counter("acid.bytes_rewritten_mb"),
    "metastore.snapshot_us" -> t.meanMs("metastore.snapshot") * 1e3,
    "metastore.commit_us" -> t.meanMs("metastore.commit") * 1e3,
    "metastore.invalid_writeids" -> t.mean("metastore.invalid_writeids"),
  )

  override def probes(): Map[String, Double] = {
    def probe(history: Int): (Double, Double) = {
      val s = new TxnStore
      (1 to history).foreach { _ =>
        val txn = s.openTxn()
        s.allocateWriteId(txn, "probe")
        s.recordWriteSet(txn, "probe", "", WriteKind.Insert)
        s.commit(txn)
      }
      def us(body: => Unit): Double = { val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e3 }
      val reps = 200
      val snap = Stats.median(Seq.fill(reps)(us(s.writeIdList("probe", s.txnList()))))
      val commit = Stats.median(Seq.fill(reps) {
        val txn = s.openTxn()
        s.allocateWriteId(txn, "probe")
        s.recordWriteSet(txn, "probe", "", WriteKind.Update)
        us(s.commit(txn))
      })
      (snap, commit)
    }
    val (s3, c3) = probe(1000)
    val (s5, c5) = probe(100000)
    Map(
      "metastore.snapshot_us.h1e3" -> s3, "metastore.commit_us.h1e3" -> c3,
      "metastore.snapshot_us.h1e5" -> s5, "metastore.commit_us.h1e5" -> c5,
      "acid.merge_same_part_fails" -> (if (samePartitionMergeWorks()) 0.0 else 1.0))
  }

  /** One MERGE that updates a row and inserts a row in the same partition,
    * on a small table of its own; true when it commits and reads back as
    * the serial model says. */
  private def samePartitionMergeWorks(): Boolean = {
    val cat = new Catalog
    val name = "merge_probe"
    cat.createTable(TableDesc(name, schema, new File(work, name).getAbsolutePath, partitionCol = Some("grp")))
    val t = new AcidTable(cat, name)
    val m = new AcidModel
    def commit(body: Long => Unit): Unit = {
      val txn = cat.txns.openTxn()
      try { body(txn); cat.txns.commit(txn) } catch {
        case NonFatal(e) => if (cat.txns.isOpen(txn)) cat.txns.abort(txn); throw e
      }
    }
    commit(txn => t.insert(txn, frame(0L, 4)))
    m.insert(rowsOf(0L, 4))
    // id 0 exists and id 2 * Partitions is new; both are in partition 0
    val src = Seq(0L, 2L * Partitions).map(id => (id, groupOf(id), amountOf(id) + 1))
    try {
      commit(txn => t.merge(txn, frameOf(src), col("t.id") === col("s.id"),
        matchedSet = Map("amount" -> col("s.amount"))))
      m.merge(src)
      val r = t.read(t.currentSnapshot()).agg(count(lit(1)), sum("amount"), sum("id")).collect().head
      (r.getLong(0), r.getLong(1), r.getLong(2)) == m.aggregate
    } catch {
      case NonFatal(e) => Console.err.println(s"[perfbench] same-partition merge probe failed: $e"); false
    }
  }

  /** Table size now, and after one final (untimed) major compaction. */
  override def finish(): Map[String, Double] = {
    val before = bytesUnder(root)
    compactor.majorCompact()
    val after = bytesUnder(root)
    Map("acid.disk_mb" -> before / 1e6, "space_amp" -> before.toDouble / after)
  }

  def provenance: Map[String, Any] = Map(
    "partitions" -> Partitions,
    "base_rows" -> BaseRows,
    "preloaded_txns" -> PreloadedTxns,
    "cycle" -> Cycle.groupBy(identity).map { case (op, n) => op -> n.size },
    "minor_threshold_deltas" -> MinorThreshold,
    "major_every_writes" -> MajorEvery,
    "writes_attempted" -> writes,
  )
}
