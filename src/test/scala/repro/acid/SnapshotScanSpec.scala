package repro.acid

import java.io.File
import java.nio.file.{Files, Path}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions.{IsNotNull, ScalaUDF}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.FileSourceScanExec
import org.apache.spark.sql.execution.datasources.LogicalRelation
import org.apache.spark.sql.functions._
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types._

import repro.SparkSpec
import repro.metastore.{Catalog, WriteIdList}
import AcidLayout._

/** Pins down the shape and the snapshot semantics of the one ACID scan:
  * building a read starts no Spark job; visibility is decided per directory,
  * so a snapshot that sees its directories whole reads with no WriteId
  * filter and reuses the generated code of an earlier snapshot's read; a
  * snapshot that sees a compacted directory in part filters its rows with a
  * native expression Parquet receives as a data filter; and the
  * `IN (invalid)` term, the base choice and `basePath` partition derivation
  * give the rows each snapshot should see, also along a random history. */
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

  /** True when a Parquet scan of `df` filters its rows on `column` by more
    * than the `IS NOT NULL` a join infers. */
  private def filtersOn(df: DataFrame, column: String): Boolean =
    df.queryExecution.sparkPlan.collect { case s: FileSourceScanExec => s }
      .exists(_.dataFilters.exists(f => !f.isInstanceOf[IsNotNull] && f.references.exists(_.name == column)))

  test("scan shape: no job to build a read, no UDF in reads or compaction") {
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
    var withIds: DataFrame = null
    assert(startedDuring { read = t.read(snap) }._1 == 0, "building read(snap) started a Spark job")
    assert(startedDuring { withIds = t.read(snap, includeRowIds = true) }._1 == 0,
      "building the row-id read of update, delete and merge started a Spark job")

    val expected = (for (b <- 0 until 4; i <- 1L to 10L if (b * 100 + i) % 5 != 0)
      yield (b * 100 + i, i.toDouble, (i % 2).toInt)).toSet
    assert(rowsOf(read) == expected)
    assert(rowsOf(withIds) == expected)

    assert(!hasScalaUdf(read.queryExecution.optimizedPlan), "visibility is still a Scala UDF")

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
        Set("k", "v", DeleteWriteIdCol) ++ RowIdCols, s"${b.path} stores other than the one file schema")
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

  test("a read at a later snapshot reuses the earlier read's generated code") {
    val (c, t) = freshTable("t_codegen", Some("p"), pSchema)
    val rows = (1L to 6L).map(i => (i, i.toDouble, (i % 2).toInt))
    commit(c)(t.insert(_, pRows(rows)))
    commit(c)(t.delete(_, col("k") === 6L))
    assert(rowsOf(t.readCurrent()) == rows.filter(_._1 != 6L).toSet)

    commit(c)(t.insert(_, pRows(Seq((7L, 7.0, 1)))))
    val later = t.readCurrent()
    val compiles = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    assert(rowsOf(later) == rows.filter(_._1 != 6L).toSet + ((7L, 7.0, 1)))
    assert(CodegenMetrics.METRIC_COMPILATION_TIME.getCount == compiles,
      "the read at a later snapshot compiled new code")
    assert(!filtersOn(later, WriteIdCol) && !filtersOn(later, DeleteWriteIdCol),
      s"a snapshot that sees every directory whole filters rows: ${later.queryExecution.sparkPlan}")
  }

  test("a snapshot that sees a compacted delta in part filters its rows") {
    val (c, t) = freshTable("t_partly", Some("p"), pSchema)
    val root = new File(c.table("t_partly").location)
    val first = (1L to 8L).map(i => (i, i.toDouble, (i % 2).toInt))
    commit(c)(t.insert(_, pRows(first)))
    commit(c)(t.delete(_, col("k") === 1L || col("k") === 2L))
    // An open write that inserts and deletes in both partitions.
    val open = c.txns.openTxn()
    t.insert(open, pRows(Seq((10L, 10.0, 0), (11L, 11.0, 1))))
    t.delete(open, col("k") === 3L || col("k") === 4L)
    val snap = t.currentSnapshot()
    val atSnap = first.filter(_._1 > 2L).toSet
    assert(snap.invalid.nonEmpty && rowsOf(t.read(snap)) == atSnap)
    c.txns.commit(open)
    commit(c)(t.insert(_, pRows(Seq((20L, 20.0, 0), (21L, 21.0, 1)))))
    commit(c)(t.delete(_, col("k") === 5L || col("k") === 6L))

    assert(new Compactor(t).minorCompact() == 12, s"layout: ${storeSubdirs(root)}")
    for (pd <- AcidLayout.listPartitionDirs(root)) {
      val ranges = AcidLayout.list(pd).collect { case d: RangeDir => (d.getClass.getSimpleName, d.lo, d.hi) }
      assert(ranges.toSet == Set(("DeltaDir", 1L, 4L), ("DeleteDeltaDir", 2L, 5L)), s"$pd: $ranges")
    }
    val read = t.read(snap)
    assert(rowsOf(read) == atSnap, "the old snapshot saw rows of the compacted range it cannot see")
    assert(filtersOn(read, WriteIdCol), s"no WriteId data filter in ${read.queryExecution.sparkPlan}")
    assert(filtersOn(read, DeleteWriteIdCol), s"no delete WriteId data filter in ${read.queryExecution.sparkPlan}")
    assert(rowsOf(t.readCurrent()) ==
      first.filter(_._1 > 6L).toSet ++ Set((10L, 10.0, 0), (11L, 11.0, 1), (20L, 20.0, 0), (21L, 21.0, 1)))
  }

  test("a seeded random history: every read equals the serial model at its snapshot") {
    val (c, t) = freshTable("t_history", Some("p"), pSchema)
    // A few rows per step: a handful of shuffle partitions keeps each join small.
    implicit val sp: SparkSession = spark.newSession()
    sp.conf.set(SQLConf.SHUFFLE_PARTITIONS.key, 4L)
    val rnd = new scala.util.Random(2019)
    type Model = Map[Long, (Double, Int)]
    def asRows(m: Model) = m.map { case (k, (v, p)) => (k, v, p) }.toSet
    var model: Model = Map.empty
    var nextKey = 0L
    def fresh(): Seq[(Long, Double, Int)] =
      (0 to rnd.nextInt(4)).map { _ => nextKey += 1; (nextKey, nextKey.toDouble, rnd.nextInt(3)) }
    def victims(): Seq[Long] =
      if (model.isEmpty) Seq(-1L) else Seq.fill(1 + rnd.nextInt(3))(model.keys.toSeq(rnd.nextInt(model.size)))
    // A MERGE on k of one shape: 0 updates the matched rows and inserts the
    // others, 1 deletes the matched rows, 2 only inserts the others. Its
    // source holds some rows of the table and some new ones. Returns the
    // model after the merge.
    def merge(txn: Long, shape: Int): Model = {
      val hits = victims().filter(model.contains).distinct
      val news = fresh()
      val src = pRows(hits.map(k => (k, -k.toDouble, model(k)._2)) ++ news)
      val on = col("t.k") === col("s.k")
      val inserted = model ++ news.map { case (k, v, p) => k -> (v, p) }
      shape match {
        case 0 =>
          t.merge(txn, src, on, matchedSet = Map("v" -> col("s.v")))
          inserted ++ hits.map(k => k -> (-k.toDouble, model(k)._2))
        case 1 =>
          t.merge(txn, src, on, matchedDelete = true, insertNotMatched = false)
          model -- hits
        case _ =>
          t.merge(txn, src, on)
          inserted
      }
    }
    // An insert that stays open across steps, then commits or aborts.
    var pending: Option[(Long, Seq[(Long, Double, Int)])] = None
    // Snapshots kept with the rows they must read. The cleaner does not wait
    // for old readers, so each major compaction ends them.
    val kept = mutable.ArrayBuffer.empty[(WriteIdList, Model)]
    val seen = mutable.Map.empty[String, Int].withDefaultValue(0)
    def check(snap: WriteIdList, expected: Model, what: String): Unit = {
      val df = t.read(snap)
      assert(rowsOf(df) == asRows(expected), s"$what read at $snap")
      if (filtersOn(df, WriteIdCol)) seen("filtered read") += 1
      seen("read") += 1
    }

    for (step <- 1 to 200) {
      val op = rnd.nextInt(24)
      if (op < 4) {
        val rows = fresh()
        commit(c)(t.insert(_, pRows(rows)))
        model ++= rows.map { case (k, v, p) => k -> (v, p) }
      } else if (op < 6) {
        val keys = victims()
        commit(c)(t.update(_, col("k").isin(keys: _*), Map("v" -> (col("v") + 1))))
        model = model.map { case (k, (v, p)) => k -> (if (keys.contains(k)) v + 1 else v, p) }
      } else if (op < 8) {
        val keys = victims()
        commit(c)(t.delete(_, col("k").isin(keys: _*)))
        model --= keys
      } else if (op < 10) {
        val shape = rnd.nextInt(3)
        commit(c)(txn => model = merge(txn, shape))
        seen(s"merge $shape") += 1
      } else if (op < 12) {
        val txn = c.txns.openTxn()
        rnd.nextInt(6) match {
          case 0 => t.insert(txn, pRows(fresh()))
          case 1 => t.update(txn, col("k").isin(victims(): _*), Map("v" -> lit(-1.0)))
          case 2 => t.delete(txn, col("k").isin(victims(): _*))
          case shape => merge(txn, shape - 3); seen("aborted merge") += 1
        }
        c.txns.abort(txn)
        seen("abort") += 1
      } else if (op < 14) {
        pending match {
          case None =>
            val txn = c.txns.openTxn()
            val rows = fresh()
            t.insert(txn, pRows(rows))
            pending = Some((txn, rows))
          case Some((txn, rows)) =>
            if (rnd.nextBoolean()) {
              c.txns.commit(txn)
              model ++= rows.map { case (k, v, p) => k -> (v, p) }
            } else c.txns.abort(txn)
            pending = None
        }
      } else if (op < 16) {
        seen("minor") += new Compactor(t).minorCompact().sign
      } else if (op < 17) {
        new Compactor(t).majorCompact()
        kept.clear()
        seen("major") += 1
      } else {
        kept += ((t.currentSnapshot(), model))
        val (snap, atSnap) = kept(rnd.nextInt(kept.size))
        check(snap, atSnap, s"step $step")
      }
    }
    check(t.currentSnapshot(), model, "final")
    for (k <- Seq("read", "filtered read", "abort", "minor", "major", "merge 0", "merge 1", "merge 2", "aborted merge"))
      assert(seen(k) > 0, s"the history never made a $k: $seen")
  }

  private def copyTree(from: Path, to: Path): Unit = {
    val walk = Files.walk(from)
    try walk.iterator().asScala.foreach { src =>
      val dst = to.resolve(from.relativize(src).toString)
      if (Files.isDirectory(src)) Files.createDirectories(dst) else Files.copy(src, dst)
    } finally walk.close()
  }
}
