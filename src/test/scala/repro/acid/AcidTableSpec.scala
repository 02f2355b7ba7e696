package repro.acid

import java.io.File
import java.nio.file.Files
import java.util.concurrent.atomic.AtomicInteger

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions.DynamicPruningExpression
import org.apache.spark.sql.execution.{FileSourceScanExec, QueryExecution}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.datasources.InsertIntoHadoopFsRelationCommand
import org.apache.spark.sql.functions._
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.QueryExecutionListener

import repro.{Oracle, SparkSpec}
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

  implicit class CurrentRead(t: AcidTable) {
    /** Reads under a freshly acquired snapshot. */
    def readCurrent(): DataFrame = t.read(t.currentSnapshot())
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

  /** The query executions `body` runs, as the listener bus reports them. */
  def executionsDuring(body: => Unit): Seq[QueryExecution] = {
    val seen = mutable.ArrayBuffer.empty[QueryExecution]
    val listener = new QueryExecutionListener {
      override def onSuccess(f: String, qe: QueryExecution, ns: Long): Unit = seen.synchronized(seen += qe)
      override def onFailure(f: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    ListenerBusAccess.drain(spark.sparkContext)
    spark.listenerManager.register(listener)
    try { body; ListenerBusAccess.drain(spark.sparkContext) } finally spark.listenerManager.unregister(listener)
    seen.synchronized(seen.toSeq)
  }

  /** File-write commands `body` runs. */
  def writesDuring(body: => Unit): Int =
    executionsDuring(body).count(_.analyzed.exists(_.isInstanceOf[InsertIntoHadoopFsRelationCommand]))

  /** Every directory and file under `dir`, as paths relative to it. */
  def tree(dir: File): Set[String] = {
    val walk = Files.walk(dir.toPath)
    try walk.iterator().asScala.map(p => dir.toPath.relativize(p).toString).toSet finally walk.close()
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

  test("a statement that matches nothing returns 0 and creates no directory") {
    val (c, t) = freshTable("t_noop")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf(Seq((1L, 1.0, "a"))))
    c.txns.commit(t1)
    val root = new File(c.table("t_noop").location)
    val before = tree(root)
    val t2 = c.txns.openTxn()
    assert(t.update(t2, lit(false), Map("v" -> lit(0.0))) == 0)
    assert(t.delete(t2, lit(false)) == 0)
    t.merge(t2, rowsDf(Seq.empty), col("t.k") === col("s.k"), matchedSet = Map("v" -> col("s.v")))
    c.txns.commit(t2)
    assert(tree(root) == before, "a statement without events left files behind")
    assert(collectKv(t.readCurrent()) == Set((1L, 1.0)))
  }

  test("a second inserting statement on one table in one transaction is refused") {
    val (c, t) = freshTable("t_two_inserts")
    val t0 = c.txns.openTxn()
    t.insert(t0, rowsDf(Seq((1L, 1.0, "a"))))
    c.txns.commit(t0)
    val txn = c.txns.openTxn()
    t.insert(txn, rowsDf(Seq((2L, 2.0, "b"))))
    // its rows would be numbered under the same WriteId as the first's
    assertThrows[IllegalStateException](t.insert(txn, rowsDf(Seq((3L, 3.0, "c")))))
    // a delete event names an existing row, so deletes may follow, each
    // adding its files to the statement's delete delta
    assert(t.delete(txn, col("k") === 1L) == 1)
    assert(t.delete(txn, col("k") === 1L) == 1)
    c.txns.commit(txn)
    assert(collectKv(t.readCurrent()) == Set((2L, 2.0)))
  }

  test("a merge writes one file per directory, though Spark sizes its join as the product of its sides") {
    val (c, t) = freshTable("t_merge_files")
    val t1 = c.txns.openTxn()
    t.insert(t1, rowsDf((1L to 10000L).map(i => (i, i.toDouble, "x"))))
    c.txns.commit(t1)
    // a broadcast join keeps the partitions of its stream side, four here
    val s = spark.newSession()
    s.conf.set(SQLConf.AUTO_BROADCASTJOIN_THRESHOLD.key, SQLConf.AUTO_BROADCASTJOIN_THRESHOLD.defaultValue.get)
    val src = s.createDataFrame(((1L to 10000L by 10) ++ (20001L to 20500L)).map(k => (k, -k.toDouble, "s")))
      .toDF("k", "v", "tag").repartition(4)
    val t2 = c.txns.openTxn()
    t.merge(t2, src, col("t.k") === col("s.k"), matchedSet = Map("v" -> col("s.v")))(s)
    c.txns.commit(t2)
    val files = tree(new File(c.table("t_merge_files").location)).filter(_.endsWith(".parquet"))
      .groupBy(_.split('/').head).map { case (d, fs) => d -> fs.size }
    assert(files == Map("delta_1_1" -> 1, "delta_2_2" -> 1, "delete_delta_2_2" -> 1), files)
    assert(t.readCurrent().count() == 10500)
  }

  test("a write runs as many tasks as Spark's scan of its input would") {
    val conf = new SQLConf // 128 MB splits at most, 4 MB open cost
    val mb = BigInt(1) << 20
    assert(AcidTable.writeTasks(0, conf, 4) == 1)
    assert(AcidTable.writeTasks(3 * mb, conf, 4) == 1)
    // 160 MB over 4 cores: 40 MB per task
    assert(AcidTable.writeTasks(160 * mb, conf, 4) == 5)
    // no task takes more than maxPartitionBytes
    assert(AcidTable.writeTasks(1024 * mb, conf, 4) == 9)
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

class AcidPartitionedSpec extends SparkSpec with AcidFixture with AdaptiveSparkPlanHelper {

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
    assert(t.storeDirs().size == 2)
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

  /** The Parquet scans of `df`'s executed plan, subqueries and adaptive
    * stages included, once `df` has run. */
  private def fileScans(df: DataFrame): Seq[FileSourceScanExec] =
    collectWithSubqueries(df.queryExecution.executedPlan) { case f: FileSourceScanExec => f }

  test("a filter on the partition column reads only that partition's directory") {
    val (c, t) = freshTable("t_prune", Some("p"), pSchema)
    val txn = c.txns.openTxn()
    t.insert(txn, pRows((1L to 30L).map(i => (i, i.toDouble, (i % 3).toInt))))
    c.txns.commit(txn)
    t.readCurrent().createOrReplaceTempView("t_prune")
    val only1 = spark.sql("SELECT k, p FROM t_prune WHERE p = 1")
    assert(only1.collect().map(r => (r.getLong(0), r.getInt(1))).toSet ==
      (1L to 30L).filter(_ % 3 == 1).map((_, 1)).toSet)
    assert(fileScans(only1).map(_.metrics("numPartitions").value) == Seq(1L))
  }

  test("a join on the partition column prunes directories at runtime, through the delete anti-join") {
    val (c, t) = freshTable("t_dpp", Some("p"), pSchema)
    val rows = (1L to 1000L).map(i => (i, i.toDouble, (i % 10).toInt))
    val t1 = c.txns.openTxn()
    t.insert(t1, pRows(rows))
    c.txns.commit(t1)
    val t2 = c.txns.openTxn()
    t.delete(t2, col("k") % 7 === 0)
    c.txns.commit(t2)
    assert(t.storeDirs().size == 10)

    // Spark's dynamic pruning needs the filtered side broadcast and a
    // selective filter it can see: a file-backed dimension, not a local one
    // whose filter the optimizer folds away.
    val s = spark.newSession()
    s.conf.set(SQLConf.AUTO_BROADCASTJOIN_THRESHOLD.key, SQLConf.AUTO_BROADCASTJOIN_THRESHOLD.defaultValue.get)
    val dimDir = Files.createTempDirectory("acid_dpp_dim").toFile
    s.range(10).select(col("id").cast("int").as("d_p"),
      when(col("id") < 3, "keep").otherwise("drop").as("d_tag"))
      .coalesce(1).write.mode("overwrite").parquet(dimDir.getPath)
    t.read(t.currentSnapshot())(s).createOrReplaceTempView("fact_p")
    s.read.parquet(dimDir.getPath).createOrReplaceTempView("dim_p")
    val q = s.sql(
      """SELECT f.p, COUNT(*) AS n, SUM(f.v) AS sv
        |FROM fact_p f JOIN dim_p d ON f.p = d.d_p
        |WHERE d.d_tag = 'keep' GROUP BY f.p""".stripMargin)
    q.collect()

    val pruned = fileScans(q).filter(_.partitionFilters.exists(_.isInstanceOf[DynamicPruningExpression]))
    assert(pruned.size == 1, q.queryExecution.executedPlan.treeString)
    assert(pruned.head.metrics("numPartitions").value == 3)
    Oracle.assertEquivalent(q,
      """SELECT p::INT AS p, COUNT(*) AS n, SUM(v::DOUBLE) AS sv
        |FROM fact, dim
        |WHERE p::INT = d_p::INT AND d_tag = 'keep' AND k::BIGINT % 7 <> 0
        |GROUP BY p::INT""".stripMargin,
      "fact" -> pRows(rows), "dim" -> s.read.parquet(dimDir.getPath))
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

  private def commit(c: Catalog)(body: Long => Unit): Unit = {
    val txn = c.txns.openTxn(); body(txn); c.txns.commit(txn)
  }

  test("each statement and each compaction writes its files with one write command") {
    val (c, t) = freshTable("t_one_write", Some("p"), pSchema)
    val comp = new Compactor(t)
    val on = col("t.k") === col("s.k")
    val steps: Seq[(String, () => Unit)] = Seq(
      "insert" -> (() => commit(c)(t.insert(_, pRows((1L to 20L).map(i => (i, i.toDouble, (i % 2).toInt)))))),
      "update" -> (() => commit(c)(t.update(_, col("k") <= 4L, Map("v" -> lit(0.0))))),
      "delete" -> (() => commit(c)(t.delete(_, col("k") === 5L || col("k") === 8L))),
      "merge" -> (() => commit(c)(t.merge(_, pRows(Seq((6L, 60.0, 0), (30L, 30.0, 0))), on,
        matchedSet = Map("v" -> col("s.v"))))),
      "minorCompact" -> (() => assert(comp.minorCompact() > 0)),
      "majorCompact" -> (() => comp.majorCompact()))
    val writes = steps.map { case (step, body) => step -> writesDuring(body()) }
    assert(writes.forall(_._2 == 1), s"file-write commands per step: $writes")
    val expected = (1L to 20L).collect {
      case k if k != 5L && k != 8L => (k, if (k <= 4L) 0.0 else if (k == 6L) 60.0 else k.toDouble, (k % 2).toInt)
    }.toSet + ((30L, 30.0, 0))
    assert(collectP(t) == expected)
  }

  test("after a mixed history every file of every directory has the one file schema") {
    val (c, t) = freshTable("t_one_schema", Some("p"), pSchema)
    val root = new File(c.table("t_one_schema").location)
    def schemas(): Map[String, StructType] =
      tree(root).filter(_.endsWith(".parquet")).map(f => f -> spark.read.parquet(new File(root, f).getPath).schema).toMap
    val fileSchema = StructType(Seq(StructField("k", LongType), StructField("v", DoubleType)) ++
      (AcidLayout.RowIdCols :+ AcidLayout.DeleteWriteIdCol).map(StructField(_, LongType)))
    commit(c)(t.insert(_, pRows((1L to 12L).map(i => (i, i.toDouble, (i % 3).toInt)))))
    commit(c)(t.update(_, col("k") % 4 === 0, Map("v" -> (col("v") + 100))))
    commit(c)(t.delete(_, col("k") === 1L))
    commit(c)(t.merge(_, pRows(Seq((2L, 20.0, 2), (40L, 40.0, 1))), col("t.k") === col("s.k"),
      matchedSet = Map("v" -> col("s.v"))))
    new Compactor(t).minorCompact()
    commit(c)(t.insert(_, pRows(Seq((50L, 50.0, 0)))))
    commit(c)(t.merge(_, pRows(Seq((3L, 0.0, 0))), col("t.k") === col("s.k"),
      matchedDelete = true, insertNotMatched = false))
    val mixed = schemas()
    assert(Seq("/delta_", "/delete_delta_").forall(d => mixed.keys.exists(_.contains(d))), mixed.keys)
    assert(mixed.values.forall(_ == fileSchema), mixed)
    new Compactor(t).majorCompact()
    val bases = schemas()
    assert(bases.keys.forall(_.contains("/base_")) && bases.values.forall(_ == fileSchema), bases)
  }

  test("a second inserting statement in one transaction is refused in any partition") {
    val (c, t) = freshTable("t_part_two_inserts", Some("p"), pSchema)
    val txn = c.txns.openTxn()
    t.insert(txn, pRows(Seq((1L, 1.0, 10))))
    // a row in p=20 would be numbered like the one in p=10, under the same
    // WriteId, so a delete of either would remove both
    assertThrows[IllegalStateException](t.insert(txn, pRows(Seq((2L, 2.0, 20)))))
    assertThrows[IllegalStateException](t.merge(txn, pRows(Seq((3L, 3.0, 20))), col("t.k") === col("s.k")))
    c.txns.commit(txn)
    assert(!new File(c.table("t_part_two_inserts").location, "p=20").exists())
    assert(collectP(t) == Set((1L, 1.0, 10)))
    commit(c)(t.insert(_, pRows(Seq((2L, 2.0, 20)))))
    commit(c)(t.delete(_, col("k") === 1L))
    assert(collectP(t) == Set((2L, 2.0, 20)))
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
    // the merge wrote one delta and one delete delta there, one file each
    val p10 = new File(c.table("t_part_merge").location, "p=10")
    val files = tree(p10).filter(_.endsWith(".parquet")).groupBy(_.split('/').head).map { case (d, fs) => d -> fs.size }
    assert(files == Map("delta_1_1" -> 1, "delta_2_2" -> 1, "delete_delta_2_2" -> 1), files)
  }

  private def collectP(t: AcidTable): Set[(Long, Double, Int)] =
    t.readCurrent().select("k", "v", "p").collect()
      .map(r => (r.getLong(0), r.getDouble(1), r.getInt(2))).toSet
}
