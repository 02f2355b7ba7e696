package repro.llap

import java.io.File
import java.util.concurrent.atomic.AtomicLong

import repro.core.NumDom

/** One decoded row group restricted to the selected columns. */
final case class RowBatch(columns: Array[ColumnVec], numRows: Int, columnNames: Seq[String])

/** Scan-level counters exposed for tests and benches. */
final class ElevatorMetrics {
  val rowGroupsRead = new AtomicLong
  val rowGroupsSkipped = new AtomicLong
  def reset(): Unit = { rowGroupsRead.set(0); rowGroupsSkipped.set(0) }
}

/** The I/O elevator (§5.1): reads column chunks (through the cache when
  * enabled), skips row groups whose min/max and Bloom indexes refute the
  * pushed predicates, and assembles the selected projection into row
  * batches for vectorized consumption. The predicates arrive as one value
  * domain per column, the [[NumDom]] MV containment reasons with (§4.4).
  */
final class IoElevator(val cache: ChunkCache, val metaCache: MetaCache) {

  val metrics = new ElevatorMetrics

  /** Scans `file`, yielding batches of `columns` for row groups that
    * survive pruning by `doms`. `useCache=false` models container-mode
    * execution without the LLAP buffer pool. */
  def scan(
      file: File,
      columns: Seq[String],
      doms: Map[String, NumDom] = Map.empty,
      useCache: Boolean = true): Iterator[RowBatch] = {
    val meta = readMeta(file, useCache)
    val colIdx = columns.map { c =>
      val i = meta.schema.fieldIndex(c)
      require(i >= 0, s"no such column $c in ${file.getName}")
      i
    }
    val survives = IoElevator.groupSurvives(meta, doms)

    (0 until meta.rowGroups).iterator.flatMap { rg =>
      if (!survives(rg)) {
        metrics.rowGroupsSkipped.incrementAndGet()
        None
      } else {
        metrics.rowGroupsRead.incrementAndGet()
        val vecs = colIdx.map(ci => fetchChunk(meta, rg, ci, useCache)).toArray
        Some(RowBatch(vecs, meta.rowsInGroup(rg), columns))
      }
    }
  }

  /** The footer of `file`: from the metadata cache, or straight from disk
    * when `useCache=false` (container mode), which leaves the cache cold. */
  def readMeta(file: File, useCache: Boolean): OrcLiteMeta =
    if (useCache) metaCache.get(file) else OrcLite.readMeta(file)

  private def fetchChunk(meta: OrcLiteMeta, rg: Int, column: Int, useCache: Boolean): ColumnVec =
    if (!useCache) OrcLite.readChunk(meta, rg, column)
    else {
      val key = ChunkKey(meta.fileKey, rg, column)
      cache.get(key).getOrElse {
        val vec = OrcLite.readChunk(meta, rg, column)
        cache.put(key, vec)
        vec
      }
    }
}

object IoElevator {

  /** The row-group filter of `meta` under `doms`, shared by the scan and
    * by the statistics the DSv2 scan reports, so both prune alike. A row
    * group survives when every domain admits a value in its [min, max]; an
    * IN-set value must also pass the stored Bloom index. Columns the file
    * lacks are not probed. */
  private[llap] def groupSurvives(meta: OrcLiteMeta, doms: Map[String, NumDom]): Int => Boolean = {
    // (column index, domain, its effective IN-set), resolved once per file
    val probes = doms.toSeq.flatMap { case (c, d) =>
      val i = meta.schema.fieldNames.indexOf(c)
      if (i >= 0) Some((i, d, d.effectiveSet)) else None
    }
    rg => probes.forall { case (ci, dom, set) =>
      val idx = meta.index(rg)(ci)
      (idx.min, idx.max) match {
        case (Some(mn), Some(mx)) =>
          set match {
            case Some(vs) =>
              vs.exists(v => v >= mn && v <= mx && idx.bloom.forall(_.mightContainLong(v.toLong)))
            case None => dom.overlaps(mn, mx)
          }
        case _ => true // no stats (e.g. all-null or string column): cannot prune
      }
    }
  }
}

/** Process-wide LLAP state shared by all scans in this "daemon" (the test
  * JVM doubles as the single LLAP daemon of a one-node cluster). */
object LlapIo {
  @volatile private var _cache = new ChunkCache(256L * 1024 * 1024)
  private val _metaCache = new MetaCache
  @volatile private var _elevator = new IoElevator(_cache, _metaCache)

  def cache: ChunkCache = _cache
  def metaCache: MetaCache = _metaCache
  def elevator: IoElevator = _elevator

  /** Reconfigures the buffer pool size (drops all cached data). */
  def configure(capacityBytes: Long): Unit = synchronized {
    _cache = new ChunkCache(capacityBytes)
    _metaCache.clear()
    _elevator = new IoElevator(_cache, _metaCache)
  }
}
