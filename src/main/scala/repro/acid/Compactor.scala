package repro.acid

import java.io.File

import org.apache.spark.sql.{DataFrame, SparkSession}

import AcidLayout._

/** Minor/major compaction for ACID tables (§3.2).
  *
  * Minor compaction merges delta directories into a single wider-range
  * delta (same for delete deltas); major compaction folds base + deltas −
  * delete markers into a fresh `base_hi` and deletes history. Compaction
  * never blocks queries: new directories are written first and superseded
  * ones are removed in a separate *cleaning* phase, mirroring Hive's
  * split between merging and cleaning. Each compaction reads all the
  * directories it folds, across partitions, through the table's one
  * snapshot scan, and writes data and row-id columns only.
  *
  * The compaction horizon `hi` is the highest WriteId below the lowest
  * write of any still-open transaction; records of aborted transactions at
  * or below `hi` are physically dropped and their bookkeeping is purged
  * from the metastore, shrinking future snapshots and transaction lists.
  */
final class Compactor(table: AcidTable) {

  private def store = table.catalog.txns

  /** Auto-trigger criterion used by HS2: compact when any store directory
    * accumulates at least `minDeltas` delta directories. */
  def shouldCompact(minDeltas: Int): Boolean =
    table.storeDirs().exists(dir => AcidLayout.list(dir).count(_.isInstanceOf[RangeDir]) >= minDeltas)

  /** Compaction horizon for this table: everything <= hi is stable. */
  private def horizon(): Long = {
    val openW = store.openWrites(table.name)
    val hwm = table.currentSnapshot().highWatermark
    if (openW.isEmpty) hwm else openW.min - 1
  }

  /** Runs minor compaction on every store directory. Returns the number of
    * directories merged away (post-cleaning). */
  def minorCompact()(implicit spark: SparkSession): Int = {
    val hi = horizon()
    val snap = table.currentSnapshot()
    // per store: the stable deltas and delete deltas above its newest base
    val stable = table.storeDirs().map { dir =>
      val dirs = AcidLayout.list(dir)
      val floor = dirs.collect { case b: BaseDir => b.writeId }.maxOption.getOrElse(0L)
      dir -> dirs.collect { case d: RangeDir if d.lo > floor && d.hi <= hi => d }
    }
    val deltas = merge(stable.map { case (dir, ds) => dir -> ds.collect { case d: DeltaDir => d } },
      deltaName)(table.snapshotScan(snap, _))
    val deletes = merge(stable.map { case (dir, ds) => dir -> ds.collect { case d: DeleteDeltaDir => d } },
      deleteDeltaName)(table.markerScan(snap, _))
    deltas + deletes
  }

  /** Rewrites the directories of every store holding more than one as one
    * `name(lo, hi)` directory spanning their range, reading them all with
    * one scan; returns the number of directories merged away. */
  private def merge[D <: RangeDir](
      runs: Seq[(File, Seq[D])],
      name: (Long, Long) => String)(
      rows: Seq[D] => DataFrame): Int = {
    val merging = runs.filter(_._2.size > 1).toMap
    if (merging.nonEmpty) {
      val names = merging.map { case (dir, ds) => dir -> name(ds.map(_.lo).min, ds.map(_.hi).max) }
      table.writeToStore(rows(merging.values.flatten.toSeq), names)
      merging.values.flatten.foreach(d => deleteRecursively(d.path))
    }
    merging.values.map(_.size).sum
  }

  /** Runs major compaction on every store directory, then purges aborted
    * write bookkeeping at or below the horizon. */
  def majorCompact()(implicit spark: SparkSession): Unit = {
    val hi = horizon()
    if (hi <= 0) return
    val folded = table.storeDirs().flatMap { dir =>
      val dirs = AcidLayout.list(dir)
      val base = dirs.collect { case b: BaseDir if b.writeId <= hi => b }.maxByOption(_.writeId)
      val floor = base.fold(0L)(_.writeId)
      val deltas = dirs.collect { case d: RangeDir if d.hi > floor && d.hi <= hi => d }
      // hi == floor means nothing stable beyond the existing base: skip.
      if (hi > floor && (base.nonEmpty || deltas.exists(_.isInstanceOf[DeltaDir])))
        base.toSeq ++ deltas
      else Seq.empty
    }
    if (folded.nonEmpty) {
      table.writeToStore(table.snapshotScan(table.currentSnapshot(), folded), _ => baseName(hi))
      // cleaning phase: drop everything the new bases supersede
      folded.foreach(d => deleteRecursively(d.path))
    }
    store.forgetAbortedWrites(table.name, hi)
  }
}
