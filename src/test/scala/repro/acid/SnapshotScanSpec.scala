package repro.acid

import java.io.File
import java.nio.file.{Files, Path}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusAccess
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.{FileSourceScanExec, QueryExecution}
import org.apache.spark.sql.execution.datasources.LogicalRelation
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.QueryExecutionListener

import repro.SparkSpec
import repro.metastore.Catalog
import AcidLayout._

/** Pins down the shape and the snapshot semantics of the one ACID scan:
  * building a read starts no Spark job, visibility is a native expression
  * Parquet receives as a data filter, and the `IN (invalid)` term, the base
  * choice and `basePath` partition derivation give the rows each snapshot
  * should see. */
class SnapshotScanSpec extends SparkSpec with AcidFixture {

  private val pSchema = StructType(Seq(
    StructField("k", LongType), StructField("v", DoubleType), StructField("p", IntegerType)))

  private def pRows(rows: Seq[(Long, Double, Int)]): DataFrame = {
    import spark.implicits._
    rows.toDF("k", "v", "p")
  }

  private def rowsOf(df: DataFrame): Set[(Long, Double, Int)] =
    df.select("k", "v", "p").collect().map(r => (r.getLong(0), r.getDouble(1), r.getInt(2))).toSet

  private def commit(c: Catalog)(body: Long => Unit): Unit = {
    val txn = c.txns.openTxn(); body(txn); c.txns.commit(txn)
  }

  private def storeSubdirs(root: File): Seq[Dir] =
    AcidLayout.listPartitionDirs(root).flatMap(AcidLayout.list)

  /** Every node of `p`, including plans nested in commands and subqueries. */
  private def nodes(p: LogicalPlan): Seq[LogicalPlan] =
    p +: (p.children ++ p.innerChildren.collect { case c: LogicalPlan => c } ++ p.subqueries)
      .flatMap(nodes)

  private def hasScalaUdf(p: LogicalPlan): Boolean =
    nodes(p).exists(_.expressions.exists(_.exists(_.isInstanceOf[ScalaUDF])))

  /** The query executions `body` runs, as the listener bus reports them. */
  private def executionsDuring(body: => Unit): Seq[QueryExecution] = {
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

  test("scan shape: no job to build a read, native visibility pushed to Parquet, no UDF in compaction") {
    val (c, t) = freshTable("t_shape", Some("p"), pSchema)
    val root = new File(c.table("t_shape").location)
    for (b <- 0 until 4)
      commit(c)(t.insert(_, pRows((1L to 10L).map(i => (b * 100 + i, i.toDouble, (i % 2).toInt)))))
    commit(c)(t.delete(_, col("k") % 5 === 0))
    val partitions = AcidLayout.listPartitionDirs(root)
    assert(partitions.size == 2)
    for (pd <- partitions) {
      val own = AcidLayout.list(pd)
      assert(own.count(_.isInstanceOf[DeltaDir]) >= 4 && own.count(_.isInstanceOf[DeleteDeltaDir]) == 1,
        s"fixture layout of $pd: $own")
    }

    val snap = t.currentSnapshot()
    var read: DataFrame = null
    var delta: DataFrame = null
    assert(startedDuring { read = t.read(snap) }._1 == 0, "building read(snap) started a Spark job")
    assert(startedDuring { delta = t.readDelta(1L, snap) }._1 == 0, "building readDelta started a Spark job")

    val expected = (for (b <- 0 until 4; i <- 1L to 10L if (b * 100 + i) % 5 != 0)
      yield (b * 100 + i, i.toDouble, (i % 2).toInt)).toSet
    assert(rowsOf(read) == expected)
    assert(rowsOf(delta) == expected.filter(_._1 >= 100))

    assert(!hasScalaUdf(read.queryExecution.optimizedPlan), "visibility is still a Scala UDF")
    val scans = read.queryExecution.sparkPlan.collect { case s: FileSourceScanExec => s }
    def filtersOn(column: String) =
      scans.exists(_.dataFilters.exists(_.references.exists(_.name == column)))
    assert(filtersOn(WriteIdCol), s"no WriteId data filter in ${scans.map(_.dataFilters)}")
    assert(filtersOn(DeleteWriteIdCol), s"no delete WriteId data filter in ${scans.map(_.dataFilters)}")

    val comp = new Compactor(t)
    val minor = executionsDuring(assert(comp.minorCompact() >= 8))
    val major = executionsDuring(comp.majorCompact())
    for ((kind, qes) <- Seq("minor" -> minor, "major" -> major)) {
      assert(qes.exists(qe => nodes(qe.optimizedPlan).exists(_.isInstanceOf[LogicalRelation])),
        s"$kind compaction ran no scan the listener saw")
      assert(!qes.exists(qe => hasScalaUdf(qe.optimizedPlan)), s"$kind compaction plan holds a Scala UDF")
    }
    assert(rowsOf(t.readCurrent()) == expected, "compaction changed the table")
    val bases = storeSubdirs(root).collect { case b: BaseDir => b }
    assert(bases.size == 2, s"expected one base per partition: $bases")
    for (b <- bases)
      assert(spark.read.parquet(b.path.getPath).schema.fieldNames.toSet ==
        Set("k", "v") ++ RowIdCols, s"${b.path} stores more than data and row-id columns")
  }

  test("snapshot edge cases: aborted write, base newer than the snapshot, pruned partition") {
    val (c, t) = freshTable("t_edges", Some("p"), pSchema)
    val root = new File(c.table("t_edges").location)
    val first = (1L to 9L).map(i => (i, i.toDouble, (i % 3).toInt))
    commit(c)(t.insert(_, pRows(first)))
    val aborted = c.txns.openTxn()
    t.insert(aborted, pRows(Seq((100L, 0.0, 0), (101L, 0.0, 1), (102L, 0.0, 2))))
    c.txns.abort(aborted)
    commit(c)(t.update(_, col("k") <= 3L, Map("v" -> (col("v") * 10))))
    commit(c)(t.delete(_, col("k") === 9L))
    val snap = t.currentSnapshot()
    assert(snap.invalid.nonEmpty, "the aborted write should be invalid in the snapshot")
    val atSnap = first.collect {
      case (k, v, p) if k != 9L => (k, if (k <= 3L) v * 10 else v, p)
    }.toSet
    assert(rowsOf(t.read(snap)) == atSnap)

    commit(c)(t.insert(_, pRows(Seq((50L, 5.0, 0), (51L, 5.0, 1)))))
    val now = atSnap ++ Set((50L, 5.0, 0), (51L, 5.0, 1))

    // Major compaction writes base_hi above the snapshot's high watermark.
    // Restore the directories it superseded, as a cleaner that waits for
    // the snapshot's readers would leave them.
    val saved = Files.createTempDirectory("acid_edges_saved")
    copyTree(root.toPath, saved)
    new Compactor(t).majorCompact()
    for (pd <- AcidLayout.listPartitionDirs(saved.toFile); d <- AcidLayout.list(pd)) {
      val live = root.toPath.resolve(pd.getName).resolve(d.path.getName)
      if (!Files.exists(live)) copyTree(d.path.toPath, live)
    }
    val bases = storeSubdirs(root).collect { case b: BaseDir => b.writeId }
    assert(bases.nonEmpty && bases.forall(_ > snap.highWatermark), s"bases: $bases")

    assert(rowsOf(t.read(snap)) == atSnap, "the snapshot used a base newer than itself")
    assert(rowsOf(t.readCurrent()) == now, "the current snapshot mixed its base with older deltas")
    assert(rowsOf(t.read(snap).filter(col("p") =!= 1)) == atSnap.filter(_._3 != 1))
    val pruned = t.read(t.currentSnapshot()).filter(col("p") === 2)
    assert(pruned.schema("p").dataType == IntegerType)
    assert(rowsOf(pruned) == now.filter(_._3 == 2))
  }

  private def copyTree(from: Path, to: Path): Unit = {
    val walk = Files.walk(from)
    try walk.iterator().asScala.foreach { src =>
      val dst = to.resolve(from.relativize(src).toString)
      if (Files.isDirectory(src)) Files.createDirectories(dst) else Files.copy(src, dst)
    } finally walk.close()
  }
}
