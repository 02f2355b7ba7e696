package repro.acid

import java.io.File

/** Directory-name conventions of the ACID file layout (§3.2, Figure 3).
  *
  * A table (or each partition of a partitioned table) holds:
  *   - `base_w/`             all valid records up to WriteId `w`
  *   - `delta_lo_hi/`        inserted records in WriteId range [lo, hi]
  *   - `delete_delta_lo_hi/` delete markers in WriteId range [lo, hi]
  *
  * Single-transaction writes create `delta_w_w` and `delete_delta_w_w`;
  * wider ranges only appear as the result of compaction. Every file in
  * every directory has one schema: the data columns, the row-id columns and
  * [[DeleteWriteIdCol]]. A delta or base leaves the deleting WriteId null, a
  * delete delta the data columns; a scan reads only the columns it needs.
  */
object AcidLayout {
  val WriteIdCol = "_acid_writeId"
  val FileIdCol = "_acid_fileId"
  val RowIdCol = "_acid_rowId"
  /** WriteId of the *deleting* transaction, null except in delete deltas. */
  val DeleteWriteIdCol = "_acid_deleteWriteId"
  val RowIdCols: Seq[String] = Seq(WriteIdCol, FileIdCol, RowIdCol)
  /** The directory a written row goes to (`delta_w_w`, `base_w`, ...); it
    * names a staging directory of the write path and is not stored. */
  val DirCol = "_acid_dir"

  private val BaseRe = raw"base_(\d+)".r
  private val DeltaRe = raw"delta_(\d+)_(\d+)".r
  private val DeleteDeltaRe = raw"delete_delta_(\d+)_(\d+)".r

  sealed trait Dir { def path: File }
  /** A delta or delete delta: the records of WriteIds [lo, hi]. */
  sealed trait RangeDir extends Dir { def lo: Long; def hi: Long }
  final case class BaseDir(path: File, writeId: Long) extends Dir
  final case class DeltaDir(path: File, lo: Long, hi: Long) extends RangeDir
  final case class DeleteDeltaDir(path: File, lo: Long, hi: Long) extends RangeDir

  def baseName(w: Long): String = s"base_$w"
  def deltaName(lo: Long, hi: Long): String = s"delta_${lo}_$hi"
  def deleteDeltaName(lo: Long, hi: Long): String = s"delete_delta_${lo}_$hi"

  def parse(f: File): Option[Dir] = f.getName match {
    case BaseRe(w)            => Some(BaseDir(f, w.toLong))
    case DeltaRe(lo, hi)      => Some(DeltaDir(f, lo.toLong, hi.toLong))
    case DeleteDeltaRe(lo, hi) => Some(DeleteDeltaDir(f, lo.toLong, hi.toLong))
    case _                    => None
  }

  /** Lists the ACID store dirs directly under `dir` (a table or partition). */
  def list(dir: File): Seq[Dir] = {
    val children = Option(dir.listFiles()).map(_.toSeq).getOrElse(Seq.empty)
    children.filter(_.isDirectory).flatMap(parse)
  }

  /** Partition sub-directories (`col=value`) of a partitioned table root. */
  def listPartitionDirs(root: File): Seq[File] = {
    Option(root.listFiles()).map(_.toSeq).getOrElse(Seq.empty)
      .filter(f => f.isDirectory && f.getName.contains("="))
  }

  def deleteRecursively(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(deleteRecursively))
    f.delete(): Unit
  }
}
