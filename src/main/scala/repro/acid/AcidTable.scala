package repro.acid

import java.io.File
import java.nio.file.{Files, StandardCopyOption}

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.metastore.{Catalog, TableDesc, WriteIdList, WriteKind}
import AcidLayout._

/** An ACID table over the base/delta directory layout (§3.2).
  *
  * Rows are uniquely identified by (WriteId, FileId, RowId); the triple is
  * stored with every record. INSERT writes a `delta_w_w` directory; DELETE
  * writes delete markers referencing target row ids into `delete_delta_w_w`;
  * UPDATE is split into a delete plus an insert under the same WriteId, and
  * MERGE combines all three. Transaction state lives in the metastore's
  * [[repro.metastore.TxnStore]], which hands readers a [[WriteIdList]].
  *
  * Every read, and both compactions, go through one snapshot scan: for each
  * store directory it picks the base and deltas to read, then reads all of
  * them with a single Parquet scan whose schema comes from the catalog (no
  * inference), filters visibility with a native column expression that
  * Parquet can push down, and anti-joins a second such scan over the delete
  * deltas on the row-id columns.
  *
  * For partitioned tables each partition value owns a sub-directory
  * (`col=value/`) holding its own base/delta stores, which is what makes
  * partition pruning — static or dynamic — a directory skip. Files never
  * store the partition column; scans derive it from the directory name.
  */
object AcidTable {
  /** Stride between file-id batches; supports up to ~1M Spark partitions
    * per write, far above anything this repo produces. */
  val FileBatchStride: Long = 1L << 20
  private val fileBatch = new java.util.concurrent.atomic.AtomicLong(0L)
  private[acid] def nextFileBatch(): Long = fileBatch.incrementAndGet()

  /** The visibility rule of a [[WriteIdList]] as a native column expression:
    * `w <= hwm AND NOT w IN (invalid)`. Unlike a UDF it reaches the Parquet
    * reader as a pushed filter and compiles with whole-stage codegen. */
  private[acid] def visible(snap: WriteIdList, w: Column): Column = {
    val upToHwm = w <= snap.highWatermark
    if (snap.invalid.isEmpty) upToHwm else upToHwm && !w.isin(snap.invalid.toSeq.sorted: _*)
  }
}

final class AcidTable(val catalog: Catalog, val name: String) {

  private def desc: TableDesc = catalog.table(name)
  private def root: File = new File(desc.location)
  private def store = catalog.txns

  private def partitionCol: Option[StructField] =
    desc.partitionCol.map(pc => desc.schema(pc))

  /** User-visible columns, partition column included. */
  def userColumns: Seq[String] = desc.schema.fieldNames.toSeq

  // ---------------------------------------------------------------- writes

  /** Inserts `df` (must match the table schema) under transaction `txn`.
    * Returns the WriteId used. */
  def insert(txn: Long, df: DataFrame): Long = {
    val w = store.allocateWriteId(txn, name)
    writeDelta(txn, w, df, WriteKind.Insert)
    w
  }

  /** Deletes all rows matching `predicate`. Returns the number of rows
    * marked deleted. */
  def delete(txn: Long, predicate: Column)(implicit spark: SparkSession): Long = {
    val w = store.allocateWriteId(txn, name)
    val snap = currentSnapshot()
    val victims = read(snap, includeRowIds = true).filter(predicate)
    writeDeleteMarkers(txn, w, victims)
  }

  /** Updates rows matching `predicate`, applying `set` (column -> new value
    * expression evaluated over the old row). Split into delete + insert
    * under one WriteId, exactly as Hive models updates. */
  def update(txn: Long, predicate: Column, set: Map[String, Column])(
      implicit spark: SparkSession): Long = {
    require(set.nonEmpty, "UPDATE with empty SET")
    desc.partitionCol.foreach(pc =>
      require(!set.contains(pc), s"cannot update partition column $pc"))
    val w = store.allocateWriteId(txn, name)
    val snap = currentSnapshot()
    val victims = read(snap, includeRowIds = true).filter(predicate).cache()
    try {
      val n = writeDeleteMarkers(txn, w, victims)
      if (n > 0) {
        val updated = set.foldLeft(victims) { case (d, (c, expr)) => d.withColumn(c, expr) }
        writeDelta(txn, w, updated.select(userColumns.map(col): _*), WriteKind.Update)
      }
      n
    } finally victims.unpersist()
  }

  /** SQL MERGE: joins `source` on `condition`; matched target rows are
    * updated via `matchedSet` (or deleted when `matchedDelete`), unmatched
    * source rows are inserted when `insertNotMatched`. All actions share a
    * single WriteId, and a source row may match at most one target row. */
  def merge(
      txn: Long,
      source: DataFrame,
      condition: Column,
      matchedSet: Map[String, Column] = Map.empty,
      matchedDelete: Boolean = false,
      insertNotMatched: Boolean = true)(implicit spark: SparkSession): Unit = {
    require(!(matchedSet.nonEmpty && matchedDelete), "MERGE: update and delete are exclusive")
    val w = store.allocateWriteId(txn, name)
    val snap = currentSnapshot()
    val tgt = read(snap, includeRowIds = true).alias("t")
    val src = source.alias("s").cache()
    try {
      val matched = tgt.join(src, condition, "inner").cache()
      try {
        if (matchedSet.nonEmpty || matchedDelete) {
          val n = writeDeleteMarkers(txn, w,
            matched.select((RowIdCols ++ desc.partitionCol.toSeq).map(c => col(s"t.$c")): _*),
            kind = if (matchedDelete) WriteKind.Delete else WriteKind.Update)
          if (n > 0 && matchedSet.nonEmpty) {
            // Qualify target columns explicitly: after the t/s join, bare
            // column names are ambiguous.
            val updatedCols = userColumns.map(c => matchedSet.getOrElse(c, col(s"t.$c")).as(c))
            writeDelta(txn, w, matched.select(updatedCols: _*), WriteKind.Update)
          }
        }
        if (insertNotMatched) {
          val fresh = src.join(tgt, condition, "left_anti")
          writeDelta(txn, w, fresh.select(userColumns.map(c => col(s"s.$c").as(c)): _*), WriteKind.Insert)
        }
      } finally matched.unpersist()
    } finally src.unpersist()
  }

  // ---------------------------------------------------------------- reads

  /** Snapshot of this table for the current transaction state. */
  def currentSnapshot(): WriteIdList = store.writeIdList(name, store.txnList())

  /** Reads the table under snapshot `snap`.
    *
    * @param partitionFilter when set, partition directories whose value does
    *        not satisfy the predicate are skipped entirely (directory-level
    *        pruning; the hook used by dynamic partition pruning in §4.6)
    * @param includeRowIds   keep the ACID row-id columns in the output
    */
  def read(
      snap: WriteIdList,
      partitionFilter: Option[String => Boolean] = None,
      includeRowIds: Boolean = false)(implicit spark: SparkSession): DataFrame = {
    val cols = userColumns ++ (if (includeRowIds) RowIdCols else Seq.empty)
    snapshotScan(snap, storeDirs(partitionFilter).flatMap(visibleDirs(_, snap))).select(cols.map(col): _*)
  }

  /** Convenience: read under a freshly acquired snapshot. */
  def readCurrent()(implicit spark: SparkSession): DataFrame = read(currentSnapshot())

  /** Rows whose WriteId lies in (fromWriteId, snap.highWatermark] — the
    * delta used by incremental materialized-view maintenance (§4.4): the
    * MV definition enriched with WriteId filters over each scan. */
  def readDelta(fromWriteId: Long, snap: WriteIdList)(implicit spark: SparkSession): DataFrame =
    read(snap, includeRowIds = true)
      .filter(col(AcidLayout.WriteIdCol) > fromWriteId)
      .select(userColumns.map(col): _*)

  /** True when any delete markers landed after `fromWriteId` — the signal
    * that incremental (insert-only) maintenance is impossible. */
  def hasDeletesSince(fromWriteId: Long): Boolean =
    storeDirs().exists(dir => AcidLayout.list(dir).exists {
      case d: DeleteDeltaDir => d.hi > fromWriteId
      case _                 => false
    })

  /** Number of partition directories that currently exist on disk. */
  def partitionDirCount: Int = listPartitionDirs(root).size

  /** Store directories: the table root for unpartitioned tables, otherwise
    * the partition directories whose value `partitionFilter` keeps. */
  private[acid] def storeDirs(partitionFilter: Option[String => Boolean] = None): Seq[File] =
    partitionCol match {
      case None    => Seq(root)
      case Some(_) => listPartitionDirs(root).filter(d => partitionFilter.forall(p => p(partitionValueOf(d))))
    }

  /** Store directory count across the table — drives compaction thresholds. */
  def storeDirCount: Int = storeDirs().map(d => AcidLayout.list(d).size).sum

  /** The directories of one store that `snap` can see: the newest base the
    * snapshot fully covers, and the deltas and delete deltas above it. */
  private def visibleDirs(store: File, snap: WriteIdList): Seq[Dir] = {
    val dirs = AcidLayout.list(store)
    val base = dirs
      .collect { case b: BaseDir if b.writeId <= snap.highWatermark && !snap.invalid.exists(_ <= b.writeId) => b }
      .maxByOption(_.writeId)
    val floor = base.fold(0L)(_.writeId)
    base.toSeq ++ dirs.collect { case d: RangeDir if d.hi > floor => d }
  }

  /** The single scan behind every read and both compactions: the rows of
    * the base and delta directories in `dirs` that `snap` sees, minus those
    * a visible marker in the delete deltas of `dirs` removes. Columns: data
    * columns, row-id columns, then the partition column. */
  private[acid] def snapshotScan(snap: WriteIdList, dirs: Seq[Dir])(
      implicit spark: SparkSession): DataFrame = {
    val dataFields = desc.schema.fields.toSeq.filterNot(f => partitionCol.contains(f)) ++
      RowIdCols.map(StructField(_, LongType))
    val rows = scan(snap, dirs.filterNot(_.isInstanceOf[DeleteDeltaDir]), dataFields, WriteIdCol)
    val deletes = dirs.collect { case d: DeleteDeltaDir => d }
    if (deletes.isEmpty) rows
    else rows.join(markerScan(snap, deletes).select(RowIdCols.map(col): _*), RowIdCols, "left_anti")
  }

  /** The delete markers of `dirs` that `snap` sees: row-id columns, the
    * deleting WriteId, then the partition column. */
  private[acid] def markerScan(snap: WriteIdList, dirs: Seq[DeleteDeltaDir])(
      implicit spark: SparkSession): DataFrame =
    scan(snap, dirs, (RowIdCols :+ DeleteWriteIdCol).map(StructField(_, LongType)), DeleteWriteIdCol)

  /** One Parquet scan over `dirs` with a schema the catalog supplies, so no
    * Spark job infers it. `basePath` is the table root, so Spark derives the
    * partition column from the `col=value` directories. Spark lists up to
    * `spark.sql.sources.parallelPartitionDiscovery.threshold` directories
    * (32 by default) on the driver; more cost one parallel listing job. */
  private def scan(snap: WriteIdList, dirs: Seq[Dir], fields: Seq[StructField], writeIdCol: String)(
      implicit spark: SparkSession): DataFrame = {
    val schema = StructType(fields ++ partitionCol)
    val files =
      if (dirs.isEmpty) spark.createDataFrame(java.util.Collections.emptyList[Row](), schema)
      else spark.read.schema(schema).option("basePath", root.getPath).parquet(dirs.map(_.path.getPath): _*)
    files.select(schema.fieldNames.toSeq.map(col): _*).filter(AcidTable.visible(snap, col(writeIdCol)))
  }

  // ------------------------------------------------------------- internals

  private def partitionValueOf(dir: File): String = dir.getName.split("=", 2)(1)

  /** Conforms a frame to the declared schema (order + types). */
  private def conform(df: DataFrame): DataFrame =
    df.select(desc.schema.fields.map(f => col(f.name).cast(f.dataType).as(f.name)).toSeq: _*)

  /** Attaches the (WriteId, FileId, RowId) identity to every row. FileIds
    * embed a per-write batch number so two writes under the same WriteId
    * (e.g. MERGE's update-insert plus not-matched-insert) never collide;
    * RowIds are unique within one write, so numbering needs no shuffle. */
  private def assignRowIds(df: DataFrame, writeId: Long): DataFrame = {
    val batch = AcidTable.nextFileBatch()
    df.withColumn(FileIdCol, (lit(batch * AcidTable.FileBatchStride) +
        spark_partition_id().cast(LongType)).cast(LongType))
      .withColumn(RowIdCol, monotonically_increasing_id())
      .withColumn(WriteIdCol, lit(writeId))
  }

  /** Writes `rows` (user columns) as `delta_w_w` and records the partitions
    * touched in the write set of `txn`. */
  private def writeDelta(txn: Long, w: Long, rows: DataFrame, kind: WriteKind.Value): Unit =
    writeToStore(assignRowIds(conform(rows), w), _ => deltaName(w, w))
      .foreach(p => store.recordWriteSet(txn, name, p, kind))

  /** Writes `df` into sub-directory `subdir(store)` of each store directory
    * it touches: the table root, or one directory per partition value, whose
    * column names the directory and is not stored in the files. When the
    * target exists already (MERGE writes updates and inserts under one
    * WriteId) the new files join it. Returns the partition values touched
    * ("" for unpartitioned). */
  private[acid] def writeToStore(df: DataFrame, subdir: File => String): Seq[String] =
    partitionCol match {
      case None =>
        df.write.mode("append").parquet(new File(root, subdir(root)).toString)
        Seq("")
      case Some(pf) =>
        val tmp = new File(root, s".tmp_${System.nanoTime()}")
        df.write.partitionBy(pf.name).parquet(tmp.toString)
        val moved = listPartitionDirs(tmp).map { pd =>
          val storeDir = new File(root, pd.getName)
          moveInto(pd, new File(storeDir, subdir(storeDir)))
          partitionValueOf(pd)
        }
        deleteRecursively(tmp)
        catalog.addPartitions(name, moved)
        moved
    }

  /** Moves directory `src` to `target`, or its files into `target` when
    * that exists. Spark names every part file after its write job, so the
    * files of two writes never clash. */
  private def moveInto(src: File, target: File): Unit =
    if (target.exists())
      src.listFiles().foreach(f =>
        Files.move(f.toPath, new File(target, f.getName).toPath, StandardCopyOption.ATOMIC_MOVE))
    else {
      target.getParentFile.mkdirs()
      Files.move(src.toPath, target.toPath, StandardCopyOption.ATOMIC_MOVE)
    }

  /** Writes delete markers for the victim rows; returns the victim count. */
  private def writeDeleteMarkers(
      txn: Long,
      w: Long,
      victims: DataFrame,
      kind: WriteKind.Value = WriteKind.Delete): Long = {
    val keyCols = RowIdCols ++ desc.partitionCol.toSeq
    val markers = victims
      .select(keyCols.map(col): _*)
      .withColumn(DeleteWriteIdCol, lit(w))
      .cache()
    try {
      val n = markers.count()
      if (n > 0)
        writeToStore(markers, _ => deleteDeltaName(w, w))
          .foreach(p => store.recordWriteSet(txn, name, p, kind))
      n
    } finally markers.unpersist()
  }
}
