package repro.acid

import java.io.File
import java.nio.file.{Files, StandardCopyOption}

import org.apache.spark.sql.{Column, DataFrame, Observation, Row, SparkSession}
import org.apache.spark.sql.catalyst.catalog.ExternalCatalogUtils.{unescapePathName, DEFAULT_PARTITION_NAME}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types._

import repro.metastore.{Catalog, RangeVisibility, TableDesc, WriteIdList, WriteKind}
import RangeVisibility._
import AcidLayout._

/** An ACID table over the base/delta directory layout (§3.2).
  *
  * Rows are uniquely identified by (WriteId, FileId, RowId); the triple is
  * stored with every record. Every statement and both compactions write
  * through one path, [[AcidTable#writeEvents]], with one Spark job: a frame
  * of *events* in one event schema, each naming its target directory. An
  * insert event carries a new row into `delta_w_w`; a delete event carries
  * the row ids of a victim into `delete_delta_w_w`, its data columns null.
  * INSERT yields insert events; DELETE delete events; UPDATE a delete and an
  * insert event per victim under one WriteId; MERGE all three, from one
  * outer join of its source with the target. Transaction state lives in
  * the metastore's [[repro.metastore.TxnStore]], which hands readers a
  * [[WriteIdList]].
  *
  * Every read, and both compactions, go through one snapshot scan: for each
  * store directory it picks the base and deltas to read, then reads all of
  * them with a single Parquet scan whose schema comes from the catalog (no
  * inference), and anti-joins a second such scan over the delete deltas on
  * the row-id columns. Visibility is decided per directory, by
  * [[WriteIdList.rangeVisibility]] over its WriteId range, as Hive's
  * `AcidUtils.getAcidState` does: a directory the snapshot cannot see at
  * all is not read, and rows are filtered by WriteId only when a directory
  * is seen in part (a compacted range holding an id the snapshot cannot
  * see). In the common case the plan therefore holds no value that depends
  * on the snapshot, and Spark reuses its generated code across reads.
  *
  * For partitioned tables each partition value owns a sub-directory
  * (`col=value/`) holding its own base/delta stores, which is what makes
  * partition pruning — static or dynamic — a directory skip. Files never
  * store the partition column; scans derive it from the directory name.
  */
object AcidTable {
  /** The visibility rule of a [[WriteIdList]] as a native column expression:
    * `w <= hwm AND NOT w IN (invalid)`. Unlike a UDF it reaches the Parquet
    * reader as a pushed filter and compiles with whole-stage codegen. */
  private[acid] def visible(snap: WriteIdList, w: Column): Column = {
    val upToHwm = w <= snap.highWatermark
    if (snap.invalid.isEmpty) upToHwm else upToHwm && !w.isin(snap.invalid.toSeq.sorted: _*)
  }

  /** How much of directory `d` the snapshot `snap` sees: a base holds the
    * WriteIds [1, w], a delta or delete delta its [lo, hi]. */
  private[acid] def visibility(snap: WriteIdList, d: Dir): RangeVisibility.Value = d match {
    case b: BaseDir  => snap.rangeVisibility(1L, b.writeId)
    case r: RangeDir => snap.rangeVisibility(r.lo, r.hi)
  }

  /** Tasks to write an input of `bytes` with: Spark's split rule for a file
    * scan (`FilePartition.maxSplitBytes`), one task per
    * `min(maxPartitionBytes, max(openCostInBytes, bytes / parallelism))`.
    * An input below one file's open cost (4 MB by default) is one task; a
    * larger one keeps the parallelism Spark's own scan of it would have. */
  private[acid] def writeTasks(bytes: BigInt, conf: SQLConf, parallelism: Int): Int = {
    val perTask = (bytes / conf.filesMinPartitionNum.fold(parallelism.toLong)(_.toLong))
      .max(conf.filesOpenCostInBytes).min(conf.filesMaxPartitionBytes)
    (bytes / perTask + 1).min(Int.MaxValue).toInt
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

  /** Data columns (partition column excluded) and the row-id columns. */
  private def dataFields: Seq[StructField] =
    desc.schema.fields.toSeq.filterNot(f => partitionCol.contains(f)) ++ RowIdCols.map(StructField(_, LongType))

  /** The one event schema of every write: the columns every ACID file
    * stores (data, row ids, the deleting WriteId), then the two that name
    * the directory a row goes to and are not stored, the partition column
    * and [[DirCol]]. An insert event leaves the deleting WriteId null, a
    * delete event the data columns. */
  private def eventSchema: Seq[StructField] =
    (dataFields :+ StructField(DeleteWriteIdCol, LongType)) ++ partitionCol :+ StructField(DirCol, StringType)

  // ---------------------------------------------------------------- writes

  /** Inserts `df` (must match the table schema) under transaction `txn`.
    * Returns the WriteId used. */
  def insert(txn: Long, df: DataFrame): Long = {
    val w = store.allocateWriteId(txn, name)
    writeStatement(txn, df.select(insertEvent(w, col(_)): _*), WriteKind.Insert)
    w
  }

  /** Deletes all rows matching `predicate`. Returns the number of rows
    * marked deleted. */
  def delete(txn: Long, predicate: Column)(implicit spark: SparkSession): Long = {
    val w = store.allocateWriteId(txn, name)
    val victims = read(currentSnapshot(), includeRowIds = true).filter(predicate)
    writeStatement(txn, victims.select(deleteEvent(w, col(_)): _*), WriteKind.Delete)
  }

  /** Updates rows matching `predicate`, applying `set` (column -> new value
    * expression evaluated over the old row). Each victim yields a delete
    * event and an insert event under one WriteId, exactly as Hive models
    * updates; the victims are scanned once. Returns the number of rows
    * updated. */
  def update(txn: Long, predicate: Column, set: Map[String, Column])(
      implicit spark: SparkSession): Long = {
    require(set.nonEmpty, "UPDATE with empty SET")
    desc.partitionCol.foreach(pc =>
      require(!set.contains(pc), s"cannot update partition column $pc"))
    val w = store.allocateWriteId(txn, name)
    val victims = read(currentSnapshot(), includeRowIds = true).filter(predicate)
    val events = array(
      struct(deleteEvent(w, col(_)): _*),
      struct(insertEvent(w, c => set.getOrElse(c, col(c))): _*))
    writeStatement(txn, victims.select(explode(events).as("e")).select("e.*"), WriteKind.Update)
  }

  /** SQL MERGE: joins `source` on `condition`; matched target rows are
    * updated via `matchedSet` (or deleted when `matchedDelete`), unmatched
    * source rows are inserted when `insertNotMatched`. All actions share a
    * single WriteId, and a source row may match at most one target row.
    * As in Hive, one outer join of the source with the target yields every
    * event: a delete and an updated row per matched target, the source row
    * when unmatched. */
  def merge(
      txn: Long,
      source: DataFrame,
      condition: Column,
      matchedSet: Map[String, Column] = Map.empty,
      matchedDelete: Boolean = false,
      insertNotMatched: Boolean = true)(implicit spark: SparkSession): Unit = {
    require(!(matchedSet.nonEmpty && matchedDelete), "MERGE: update and delete are exclusive")
    val w = store.allocateWriteId(txn, name)
    // Qualify columns explicitly: after the s/t join, bare names are ambiguous.
    val t = (c: String) => col(s"t.$c")
    val matched = t(WriteIdCol).isNotNull
    val events = Seq(
      (matchedSet.nonEmpty || matchedDelete) -> when(matched, struct(deleteEvent(w, t): _*)),
      matchedSet.nonEmpty -> when(matched, struct(insertEvent(w, c => matchedSet.getOrElse(c, t(c))): _*)),
      insertNotMatched -> when(!matched, struct(insertEvent(w, c => col(s"s.$c")): _*)))
      .collect { case (true, e) => e }
    if (events.nonEmpty) {
      val joined = source.alias("s").join(read(currentSnapshot(), includeRowIds = true).alias("t"),
        condition, if (insertNotMatched) "left_outer" else "inner")
      writeStatement(txn,
        joined.select(explode(array(events: _*)).as("e")).where(col("e").isNotNull).select("e.*"),
        if (matchedDelete) WriteKind.Delete else WriteKind.Update)
    }
  }

  // ---------------------------------------------------------------- reads

  /** Snapshot of this table for the current transaction state. */
  def currentSnapshot(): WriteIdList = store.writeIdList(name, store.txnList())

  /** Reads the table under snapshot `snap`. A filter on the partition
    * column, static or a join's dynamic pruning filter, reaches the scan's
    * `col=value` directories, so Spark skips the partitions it excludes.
    *
    * @param includeRowIds keep the ACID row-id columns in the output
    */
  def read(snap: WriteIdList, includeRowIds: Boolean = false)(implicit spark: SparkSession): DataFrame = {
    val cols = userColumns ++ (if (includeRowIds) RowIdCols else Seq.empty)
    snapshotScan(snap, storeDirs().flatMap(visibleDirs(_, snap))).select(cols.map(col): _*)
  }

  /** Store directories: the table root for unpartitioned tables, otherwise
    * the partition directories. */
  private[acid] def storeDirs(): Seq[File] =
    if (partitionCol.isEmpty) Seq(root) else listPartitionDirs(root)

  /** Store directory count across the table — drives compaction thresholds. */
  def storeDirCount: Int = storeDirs().map(d => AcidLayout.list(d).size).sum

  /** The directories of one store that `snap` reads: the newest base it
    * sees whole, and the deltas and delete deltas above that base. Deltas it
    * sees nothing of (aborted, open or later writes) are left to the scan,
    * which does not read them. */
  private def visibleDirs(store: File, snap: WriteIdList): Seq[Dir] = {
    val dirs = AcidLayout.list(store)
    val base = dirs
      .collect { case b: BaseDir if AcidTable.visibility(snap, b) == AllVisible => b }
      .maxByOption(_.writeId)
    val floor = base.fold(0L)(_.writeId)
    base.toSeq ++ dirs.collect { case d: RangeDir if d.hi > floor => d }
  }

  /** The single scan behind every read and both compactions: the rows of
    * the base and delta directories in `dirs` that `snap` sees, minus those
    * a visible marker in the delete deltas of `dirs` removes. Columns: data
    * columns, row-id columns, then the partition column. `dirs` may hold
    * directories `snap` sees in part or not at all (the compactor passes
    * every directory it folds); [[scan]] decides for each. */
  private[acid] def snapshotScan(snap: WriteIdList, dirs: Seq[Dir])(
      implicit spark: SparkSession): DataFrame = {
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

  /** One Parquet scan over the directories of `dirs` that `snap` sees, with
    * a schema the catalog supplies, so no Spark job infers it. Directories
    * it sees nothing of are not listed; rows are filtered on `writeIdCol`
    * only when some directory is seen in part, so a plan over directories
    * seen whole holds no snapshot constant. `basePath` is the table root, so
    * Spark derives the partition column from the `col=value` directories.
    * Spark lists up to `spark.sql.sources.parallelPartitionDiscovery.threshold`
    * directories (32 by default) on the driver; more cost one parallel
    * listing job. */
  private def scan(snap: WriteIdList, dirs: Seq[Dir], fields: Seq[StructField], writeIdCol: String)(
      implicit spark: SparkSession): DataFrame = {
    val schema = StructType(fields ++ partitionCol)
    val seen = dirs.map(d => d -> AcidTable.visibility(snap, d)).filter(_._2 != NoneVisible)
    val files =
      if (seen.isEmpty) spark.createDataFrame(java.util.Collections.emptyList[Row](), schema)
      else spark.read.schema(schema).option("basePath", root.getPath).parquet(seen.map(_._1.path.getPath): _*)
    val rows = files.select(schema.fieldNames.toSeq.map(col): _*)
    if (seen.exists(_._2 == SomeVisible)) rows.filter(AcidTable.visible(snap, col(writeIdCol))) else rows
  }

  // ------------------------------------------------------------- internals

  private def partitionValueOf(dir: File): String = dir.getName.split("=", 2)(1)

  /** The columns of one event row of [[eventSchema]]: `values` by column
    * name, cast to the column's type; every other column is null. */
  private def event(values: Seq[(String, Column)]): Seq[Column] = {
    val given = values.toMap
    eventSchema.map(f => given.getOrElse(f.name, lit(null)).cast(f.dataType).as(f.name))
  }

  /** The event that inserts the row whose user columns `row` gives under
    * WriteId `w`. Its FileId and RowId stay null: [[writeEvents]] numbers
    * it. */
  private def insertEvent(w: Long, row: String => Column): Seq[Column] =
    event(userColumns.map(c => c -> row(c)) ++ Seq(WriteIdCol -> lit(w), DirCol -> lit(deltaName(w, w))))

  /** The event that deletes, under WriteId `w`, the row whose row-id and
    * partition columns `row` gives. */
  private def deleteEvent(w: Long, row: String => Column): Seq[Column] =
    event((RowIdCols ++ desc.partitionCol).map(c => c -> row(c)) ++
      Seq(DeleteWriteIdCol -> lit(w), DirCol -> lit(deleteDeltaName(w, w))))

  /** `rows` (columns of [[eventSchema]], such as a snapshot scan's) as
    * events bound for the directory `dir` names. */
  private[acid] def asEvents(rows: DataFrame, dir: Column): DataFrame =
    rows.select(event(rows.columns.toSeq.map(c => c -> col(c)) :+ (DirCol -> dir)): _*)

  /** The column that names each row's directory: `names` gives it per store
    * directory, which a partitioned table keys by the row's partition value
    * as its `col=value` directory spells it. */
  private[acid] def dirFor(names: Map[File, String]): Column = partitionCol match {
    case None => lit(names(root))
    case Some(pf) =>
      val byValue = names.map { case (dir, n) => unescapePathName(partitionValueOf(dir)) -> n }
      element_at(typedLit(byValue), coalesce(col(pf.name).cast(StringType), lit(DEFAULT_PARTITION_NAME)))
  }

  /** Writes one statement's events and records its write set: `deletes`
    * (Update or Delete) for every partition that got a delete delta.
    * Inserts never conflict, so a partition that got only a delta is not
    * recorded. Returns the number of delete events, counted by the same job. */
  private def writeStatement(txn: Long, events: DataFrame, deletes: WriteKind.Value): Long = {
    val counted = Observation()
    writeEvents(events.observe(counted, count(col(DeleteWriteIdCol)).as("n")))
      .collect { case (p, _: DeleteDeltaDir) => p }.foreach(store.recordWriteSet(txn, name, _, deletes))
    counted.get("n").asInstanceOf[Long]
  }

  /** The one write path: every ACID file is written here. Writes `events`
    * (the columns of [[eventSchema]]) with one Spark job into a staging
    * directory, partitioned by the partition column and [[DirCol]], then
    * moves each directory it wrote into its store directory: the table
    * root, or one directory per partition value. Insert events, whose FileId
    * and RowId are null, are numbered (`spark_partition_id()`,
    * `monotonically_increasing_id()`) without a shuffle, so they are
    * unique across the table only if a WriteId's delta is written once. The
    * job's tasks follow [[AcidTable.writeTasks]] over the bytes the plan
    * reads (its leaves' size estimates summed; a join's own estimate is the
    * product of its sides'), coalesced without a shuffle. A delete delta may
    * exist already (a transaction's second deleting statement on the table,
    * whose events name existing rows); any other target must not exist in
    * any store directory of the table, or the write fails before anything
    * moves. Returns each (partition value, "" when unpartitioned; directory)
    * written. */
  private[acid] def writeEvents(events: DataFrame): Seq[(String, Dir)] = {
    val qe = events.queryExecution
    val session = qe.sparkSession
    val tasks = AcidTable.writeTasks(qe.optimizedPlan.collectLeaves().map(_.stats.sizeInBytes).sum,
      session.sessionState.conf, session.sparkContext.defaultParallelism)
    val stores = storeDirs()
    val tmp = new File(root, s".tmp_${System.nanoTime()}")
    try {
      events.coalesce(tasks)
        .withColumn(FileIdCol, coalesce(col(FileIdCol), spark_partition_id().cast(LongType)))
        .withColumn(RowIdCol, coalesce(col(RowIdCol), monotonically_increasing_id()))
        .write
        // no _SUCCESS marker: visibility comes from WriteIds, and the
        // staging directory is deleted after the move
        .option("mapreduce.fileoutputcommitter.marksuccessfuljobs", "false")
        .partitionBy(partitionCol.map(_.name).toSeq :+ DirCol: _*)
        .parquet(tmp.getPath)
      val staged = for {
        stage <- if (partitionCol.isEmpty) Seq(tmp) else listPartitionDirs(tmp)
        files <- listPartitionDirs(stage)
      } yield {
        val storeDir = if (partitionCol.isEmpty) root else new File(root, stage.getName)
        val target = new File(storeDir, partitionValueOf(files))
        val dir = AcidLayout.parse(target).getOrElse(throw new IllegalStateException(s"not an ACID directory: $target"))
        if (!dir.isInstanceOf[DeleteDeltaDir] && stores.exists(new File(_, target.getName).exists()))
          throw new IllegalStateException(
            s"${target.getName} exists in table $name: one inserting statement per table and transaction")
        (if (partitionCol.isEmpty) "" else partitionValueOf(stage), files, dir)
      }
      staged.foreach { case (_, files, dir) => moveInto(files, dir.path) }
      staged.map { case (p, _, dir) => p -> dir }
    } finally deleteRecursively(tmp)
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
}
