package repro.acid

import java.nio.file.Files
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.SparkSpec
import repro.metastore.{Catalog, TableDesc, TxnConflictException}

/** Shared fixture: a fresh catalog + ACID table in a temp dir per test. */
trait AcidFixture { self: SparkSpec =>
  implicit lazy val sp: SparkSession = spark

  val schema: StructType = StructType(Seq(
    StructField("k", LongType), StructField("v", DoubleType), StructField("tag", StringType)))

  def freshTable(name: String, partitionCol: Option[String] = None,
                 tblSchema: StructType = schema): (Catalog, AcidTable) = {
    val dir = Files.createTempDirectory(s"acid_$name").toFile
    val catalog = new Catalog
    catalog.createTable(TableDesc(name, tblSchema, dir.toString, partitionCol))
    (catalog, new AcidTable(catalog, name))
  }

  def rowsDf(rows: Seq[(Long, Double, String)]): DataFrame = {
    import spark.implicits._
    rows.toDF("k", "v", "tag")
  }

  def collectKv(df: DataFrame): Set[(Long, Double)] =
    df.select("k", "v").collect().map(r => (r.getLong(0), r.getDouble(1))).toSet

  /** Spark (jobs, stages) started while `body` runs, counted once the
    * listener bus has delivered every event. */
  def startedDuring(body: => Unit): (Int, Int) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val stages = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = stages.incrementAndGet()
    }
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    try { body; ListenerBusAccess.drain(sc) } finally sc.removeSparkListener(listener)
    (jobs.get, stages.get)
  }
}

class AcidTableSpec extends SparkSpec with AcidFixture {

  test("insert + commit is visible to later snapshots") {
    val (c, t) = freshTable("t_ins")
    val txn = c.txns.openTxn()
    t.insert(txn, rowsDf(Seq((1L, 1.0, "a"), (2L, 2.0, "b"))))
    c.txns.commit(txn)
    assert(collectKv(t.readCurrent()) == Set((1L, 1.0), (2L, 2.0)))
  }

  test("uncommitted insert is invisible to concurrent readers") {
    val (c, t) = freshTable("t_dirty")
    val txn = c.txns.openTxn()
    t.insert(txn, rowsDf(Seq((1L, 1.0, "a"))))
    assert(t.readCurrent().count() == 0, "dirty read!")
    c.txns.commit(txn)
    assert(t.readCurrent().count() == 1)
  }

  test("aborted insert never becomes visible") {
    val (c, t) = freshTable("t_abort")
    val txn = c.txns.openTxn()
    t.insert(txn, rowsDf(Seq((1L, 1.0, "a"))))
    c.txns.abort(txn)
    assert(t.readCurrent().count() == 0)
  }

  test("snapshot isolation: a snapshot taken before a commit never sees it") {
    val (c, t) = freshTable("t_si")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf(Seq((1L, 1.0, "a"))))
    c.txns.commit(t1)
    val snap = t.currentSnapshot() // high watermark fixed here
    val t2 = c.txns.openTxn()
    t.insert(t2, rowsDf(Seq((2L, 2.0, "b"))))
    c.txns.commit(t2)
    assert(collectKv(t.read(snap)) == Set((1L, 1.0)), "snapshot saw a later commit")
    assert(collectKv(t.readCurrent()) == Set((1L, 1.0), (2L, 2.0)))
  }

  test("delete removes matching rows for later readers") {
    val (c, t) = freshTable("t_del")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf(Seq((1L, 1.0, "a"), (2L, 2.0, "b"), (3L, 3.0, "a"))))
    c.txns.commit(t1)
    val t2 = c.txns.openTxn()
    val n = t.delete(t2, col("tag") === "a")
    c.txns.commit(t2)
    assert(n == 2)
    assert(collectKv(t.readCurrent()) == Set((2L, 2.0)))
  }

  test("uncommitted delete does not hide rows from other readers") {
    val (c, t) = freshTable("t_del_dirty")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf(Seq((1L, 1.0, "a"))))
    c.txns.commit(t1)
    val t2 = c.txns.openTxn()
    t.delete(t2, col("k") === 1L)
    assert(t.readCurrent().count() == 1, "uncommitted delete leaked")
    c.txns.commit(t2)
    assert(t.readCurrent().count() == 0)
  }

  test("aborted delete leaves rows intact") {
    val (c, t) = freshTable("t_del_abort")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf(Seq((1L, 1.0, "a"))))
    c.txns.commit(t1)
    val t2 = c.txns.openTxn()
    t.delete(t2, col("k") === 1L)
    c.txns.abort(t2)
    assert(t.readCurrent().count() == 1)
  }

  test("update is delete+insert under one WriteId and changes values") {
    val (c, t) = freshTable("t_upd")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf(Seq((1L, 1.0, "a"), (2L, 2.0, "b"))))
    c.txns.commit(t1)
    val t2 = c.txns.openTxn()
    val n = t.update(t2, col("k") === 1L, Map("v" -> (col("v") * 10)))
    c.txns.commit(t2)
    assert(n == 1)
    assert(collectKv(t.readCurrent()) == Set((1L, 10.0), (2L, 2.0)))
  }

  test("update with no matches is a no-op") {
    val (c, t) = freshTable("t_upd0")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf(Seq((1L, 1.0, "a"))))
    c.txns.commit(t1)
    val t2 = c.txns.openTxn()
    assert(t.update(t2, col("k") === 99L, Map("v" -> lit(0.0))) == 0)
    c.txns.commit(t2)
    assert(collectKv(t.readCurrent()) == Set((1L, 1.0)))
  }

  test("merge: matched rows updated, unmatched source rows inserted") {
    val (c, t) = freshTable("t_merge")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf(Seq((1L, 1.0, "a"), (2L, 2.0, "b"))))
    c.txns.commit(t1)
    val src = rowsDf(Seq((2L, 20.0, "b2"), (3L, 30.0, "c")))
    val t2 = c.txns.openTxn()
    t.merge(t2, src, col("t.k") === col("s.k"),
      matchedSet = Map("v" -> col("s.v"), "tag" -> col("s.tag")))
    c.txns.commit(t2)
    assert(collectKv(t.readCurrent()) == Set((1L, 1.0), (2L, 20.0), (3L, 30.0)))
  }

  test("merge with matchedDelete removes matched targets") {
    val (c, t) = freshTable("t_merge_del")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf(Seq((1L, 1.0, "a"), (2L, 2.0, "b"))))
    c.txns.commit(t1)
    val src = rowsDf(Seq((2L, 0.0, "x")))
    val t2 = c.txns.openTxn()
    t.merge(t2, src, col("t.k") === col("s.k"),
      matchedDelete = true, insertNotMatched = false)
    c.txns.commit(t2)
    assert(collectKv(t.readCurrent()) == Set((1L, 1.0)))
  }

  test("merge insert-only behaves like WHEN NOT MATCHED THEN INSERT") {
    val (c, t) = freshTable("t_merge_ins")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf(Seq((1L, 1.0, "a"))))
    c.txns.commit(t1)
    val src = rowsDf(Seq((1L, 99.0, "dup"), (5L, 5.0, "new")))
    val t2 = c.txns.openTxn()
    t.merge(t2, src, col("t.k") === col("s.k"))
    c.txns.commit(t2)
    assert(collectKv(t.readCurrent()) == Set((1L, 1.0), (5L, 5.0)))
  }

  test("row identities (WriteId, FileId, RowId) are unique") {
    val (c, t) = freshTable("t_ids")
    for (batch <- 1 to 3) {
      val txn = c.txns.openTxn()
      t.insert(txn, rowsDf((1L to 50L).map(i => (batch * 100 + i, i.toDouble, "x"))))
      c.txns.commit(txn)
    }
    val ids = t.read(t.currentSnapshot(), includeRowIds = true)
      .select(AcidLayout.WriteIdCol, AcidLayout.FileIdCol, AcidLayout.RowIdCol)
      .collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2)))
    assert(ids.length == 150 && ids.distinct.length == 150)
  }

  test("an insert numbers its rows within one Spark stage") {
    val (c, t) = freshTable("t_one_stage")
    val rows = rowsDf((1L to 50L).map(i => (i, i.toDouble, "x")))
    val txn = c.txns.openTxn()
    val (_, stages) = startedDuring(t.insert(txn, rows))
    c.txns.commit(txn)
    assert(stages == 1, s"the insert ran $stages Spark stages; numbering rows must not shuffle")
    assert(t.readCurrent().count() == 50)
  }

  test("multi-table write in a single transaction commits atomically") {
    val dirA = Files.createTempDirectory("acid_ma").toFile
    val dirB = Files.createTempDirectory("acid_mb").toFile
    val c = new Catalog
    c.createTable(TableDesc("ta", schema, dirA.toString))
    c.createTable(TableDesc("tb", schema, dirB.toString))
    val ta = new AcidTable(c, "ta"); val tb = new AcidTable(c, "tb")
    val txn = c.txns.openTxn()
    ta.insert(txn, rowsDf(Seq((1L, 1.0, "a"))))
    tb.insert(txn, rowsDf(Seq((2L, 2.0, "b"))))
    assert(ta.readCurrent().count() == 0 && tb.readCurrent().count() == 0)
    c.txns.commit(txn)
    assert(ta.readCurrent().count() == 1 && tb.readCurrent().count() == 1)
  }

  test("concurrent updates to the same rows: first commit wins, second aborts") {
    val (c, t) = freshTable("t_conflict")
    val t0 = c.txns.openTxn()
    t.insert(t0, rowsDf(Seq((1L, 1.0, "a"))))
    c.txns.commit(t0)
    val t1 = c.txns.openTxn(); val t2 = c.txns.openTxn()
    t.update(t1, col("k") === 1L, Map("v" -> lit(10.0)))
    t.update(t2, col("k") === 1L, Map("v" -> lit(20.0)))
    c.txns.commit(t1)
    assertThrows[TxnConflictException](c.txns.commit(t2))
    assert(collectKv(t.readCurrent()) == Set((1L, 10.0)), "loser's write leaked")
  }

  test("read matches DuckDB after a mixed insert/delete/update history") {
    val (c, t) = freshTable("t_oracle")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf((1L to 100L).map(i => (i, i.toDouble, if (i % 2 == 0) "even" else "odd"))))
    c.txns.commit(t1)
    val t2 = c.txns.openTxn()
    t.delete(t2, col("k") % 10 === 0)
    c.txns.commit(t2)
    val t3 = c.txns.openTxn()
    t.update(t3, col("tag") === "odd", Map("v" -> (col("v") + 1000)))
    c.txns.commit(t3)

    // Oracle: replay the same history in DuckDB over the base data.
    val base = rowsDf((1L to 100L).map(i => (i, i.toDouble, if (i % 2 == 0) "even" else "odd")))
    repro.Oracle.assertEquivalent(
      t.readCurrent().select(col("k"), col("v"), col("tag")),
      """SELECT k::BIGINT AS k,
        |       (CASE WHEN tag = 'odd' THEN v::DOUBLE + 1000 ELSE v::DOUBLE END) AS v,
        |       tag
        |FROM t_base WHERE k::BIGINT % 10 <> 0""".stripMargin,
      "t_base" -> base)
  }
}

class AcidPartitionedSpec extends SparkSpec with AcidFixture {

  private val pSchema = StructType(Seq(
    StructField("k", LongType), StructField("v", DoubleType), StructField("p", IntegerType)))

  private def pRows(rows: Seq[(Long, Double, Int)]): DataFrame = {
    import spark.implicits._
    rows.toDF("k", "v", "p")
  }

  test("insert creates one directory per partition value (Figure 3 layout)") {
    val (c, t) = freshTable("t_part", Some("p"), pSchema)
    val txn = c.txns.openTxn()
    t.insert(txn, pRows(Seq((1L, 1.0, 10), (2L, 2.0, 10), (3L, 3.0, 20))))
    c.txns.commit(txn)
    assert(t.partitionDirCount == 2)
    assert(c.listPartitions("t_part") == Set("10", "20"))
  }

  test("partitioned read restores the partition column with its type") {
    val (c, t) = freshTable("t_part_rt", Some("p"), pSchema)
    val txn = c.txns.openTxn()
    t.insert(txn, pRows(Seq((1L, 1.0, 10), (3L, 3.0, 20))))
    c.txns.commit(txn)
    val out = t.readCurrent()
    assert(out.schema("p").dataType == IntegerType)
    assert(out.select("k", "p").collect().map(r => (r.getLong(0), r.getInt(1))).toSet ==
      Set((1L, 10), (3L, 20)))
  }

  test("partitionFilter prunes directories (the dynamic pruning hook)") {
    val (c, t) = freshTable("t_prune", Some("p"), pSchema)
    val txn = c.txns.openTxn()
    t.insert(txn, pRows((1L to 30L).map(i => (i, i.toDouble, (i % 3).toInt))))
    c.txns.commit(txn)
    val only1 = t.read(t.currentSnapshot(), partitionFilter = Some(_ == "1"))
    assert(only1.select("p").distinct().collect().map(_.getInt(0)).toSeq == Seq(1))
    assert(only1.count() == 10)
  }

  test("delete in one partition leaves others untouched") {
    val (c, t) = freshTable("t_part_del", Some("p"), pSchema)
    val t1 = c.txns.openTxn()
    t.insert(t1, pRows(Seq((1L, 1.0, 10), (2L, 2.0, 20))))
    c.txns.commit(t1)
    val t2 = c.txns.openTxn()
    t.delete(t2, col("p") === 10)
    c.txns.commit(t2)
    assert(t.readCurrent().select("k").collect().map(_.getLong(0)).toSeq == Seq(2L))
  }

  test("update keeps rows in their partition and rejects partition-column updates") {
    val (c, t) = freshTable("t_part_upd", Some("p"), pSchema)
    val t1 = c.txns.openTxn()
    t.insert(t1, pRows(Seq((1L, 1.0, 10), (2L, 2.0, 20))))
    c.txns.commit(t1)
    val t2 = c.txns.openTxn()
    assertThrows[IllegalArgumentException](
      t.update(t2, col("k") === 1L, Map("p" -> lit(99))))
    t.update(t2, col("k") === 1L, Map("v" -> lit(7.0)))
    c.txns.commit(t2)
    assert(collectP(t) == Set((1L, 7.0, 10), (2L, 2.0, 20)))
  }

  test("conflict detection is partition-granular") {
    val (c, t) = freshTable("t_part_cf", Some("p"), pSchema)
    val t0 = c.txns.openTxn()
    t.insert(t0, pRows(Seq((1L, 1.0, 10), (2L, 2.0, 20))))
    c.txns.commit(t0)
    val t1 = c.txns.openTxn(); val t2 = c.txns.openTxn()
    t.update(t1, col("p") === 10, Map("v" -> lit(1.5)))
    t.update(t2, col("p") === 20, Map("v" -> lit(2.5)))
    c.txns.commit(t1)
    c.txns.commit(t2) // disjoint partitions: no conflict
    assert(collectP(t) == Set((1L, 1.5, 10), (2L, 2.5, 20)))
  }

  test("merge that updates and inserts in the same partition") {
    val (c, t) = freshTable("t_part_merge", Some("p"), pSchema)
    val t1 = c.txns.openTxn()
    t.insert(t1, pRows(Seq((1L, 1.0, 10), (2L, 2.0, 20))))
    c.txns.commit(t1)
    // k = 1 matches in partition 10; k = 3 is new in partition 10 too
    val src = pRows(Seq((1L, 10.0, 10), (3L, 30.0, 10)))
    val t2 = c.txns.openTxn()
    t.merge(t2, src, col("t.k") === col("s.k"), matchedSet = Map("v" -> col("s.v")))
    c.txns.commit(t2)
    assert(collectP(t) == Set((1L, 10.0, 10), (2L, 2.0, 20), (3L, 30.0, 10)))
  }

  private def collectP(t: AcidTable): Set[(Long, Double, Int)] =
    t.readCurrent()(sp).select("k", "v", "p").collect()
      .map(r => (r.getLong(0), r.getDouble(1), r.getInt(2))).toSet
}
