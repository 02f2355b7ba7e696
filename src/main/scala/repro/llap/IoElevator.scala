package repro.llap

import java.io.File
import java.util.concurrent.atomic.AtomicLong

import repro.util.BloomFilter

/** Sargable predicates the I/O elevator can evaluate against row-group
  * metadata (min/max) and Bloom indexes, plus semijoin-reducer payloads
  * (range + Bloom filter) pushed down at runtime (§4.6, §5.1). */
sealed trait Sarg { def column: String }
final case class SargEquals(column: String, value: Double) extends Sarg
/** `lo <= column <= hi`; either bound is strict when its flag is false,
  * the way `NumDom` models intervals. */
final case class SargRange(
    column: String, lo: Double, hi: Double,
    loIncl: Boolean = true, hiIncl: Boolean = true) extends Sarg {
  /** True when some value in [mn, mx] satisfies the range. */
  def overlaps(mn: Double, mx: Double): Boolean =
    (hi > mn || (hiIncl && hi == mn)) && (lo < mx || (loIncl && lo == mx))
}
final case class SargIn(column: String, values: Set[Long]) extends Sarg
/** A semijoin reducer: min/max range plus a Bloom filter over the join keys
  * produced by the filtered dimension subexpression. */
final case class SargBloom(column: String, lo: Double, hi: Double, bloom: BloomFilter) extends Sarg

/** One decoded row group restricted to the selected columns. */
final case class RowBatch(columns: Array[ColumnVec], numRows: Int, columnNames: Seq[String])

/** Scan-level counters exposed for tests and benches. */
final class ElevatorMetrics {
  val rowGroupsRead = new AtomicLong
  val rowGroupsSkipped = new AtomicLong
  val rowsFiltered = new AtomicLong
  def reset(): Unit = { rowGroupsRead.set(0); rowGroupsSkipped.set(0); rowsFiltered.set(0) }
}

/** The I/O elevator (§5.1): reads column chunks (through the cache when
  * enabled), skips row groups whose metadata refutes the pushed predicates,
  * applies Bloom-filter row filtering for semijoin reducers, and assembles
  * the selected projection into row batches for vectorized consumption.
  */
final class IoElevator(val cache: ChunkCache, val metaCache: MetaCache) {

  val metrics = new ElevatorMetrics

  /** Scans `file`, yielding batches of `columns` for row groups that
    * survive predicate pruning. `useCache=false` models container-mode
    * execution without the LLAP buffer pool. */
  def scan(
      file: File,
      columns: Seq[String],
      sargs: Seq[Sarg] = Seq.empty,
      useCache: Boolean = true): Iterator[RowBatch] = {
    val meta = if (useCache) metaCache.get(file) else OrcLite.readMeta(file)
    val colIdx = columns.map { c =>
      val i = meta.schema.fieldIndex(c)
      require(i >= 0, s"no such column $c in ${file.getName}")
      i
    }
    val sargIdx: Seq[(Sarg, Int)] = sargs.flatMap { s =>
      val i = meta.schema.fieldNames.indexOf(s.column)
      if (i >= 0) Some(s -> i) else None
    }

    (0 until meta.rowGroups).iterator.flatMap { rg =>
      if (!groupSurvives(meta, rg, sargIdx)) {
        metrics.rowGroupsSkipped.incrementAndGet()
        None
      } else {
        metrics.rowGroupsRead.incrementAndGet()
        val vecs = colIdx.map(ci => fetchChunk(meta, rg, ci, useCache)).toArray
        val batch = RowBatch(vecs, meta.rowsInGroup(rg), columns)
        Some(applyBloomRowFilter(meta, rg, batch, sargIdx, useCache))
      }
    }
  }

  /** Reads metadata only — first scans populate it in bulk (§5.1). */
  def metaOf(file: File): OrcLiteMeta = metaCache.get(file)

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

  /** Row-group pruning against min/max and the stored Bloom index. */
  private def groupSurvives(meta: OrcLiteMeta, rg: Int, sargs: Seq[(Sarg, Int)]): Boolean =
    sargs.forall { case (sarg, ci) =>
      val idx = meta.index(rg)(ci)
      (idx.min, idx.max) match {
        case (Some(mn), Some(mx)) =>
          sarg match {
            case SargEquals(_, v) =>
              v >= mn && v <= mx &&
                idx.bloom.forall(_.mightContain(v.toLong))
            case r: SargRange => r.overlaps(mn, mx)
            case SargIn(_, vs) =>
              vs.exists(v => v >= mn && v <= mx &&
                idx.bloom.forall(_.mightContain(v)))
            case SargBloom(_, lo, hi, _) => hi >= mn && lo <= mx
          }
        case _ => true // no stats (e.g. all-null or string column): cannot prune
      }
    }

  /** Applies semijoin Bloom filters row-by-row (integral columns only),
    * producing a reduced batch; other sargs are left to the engine. */
  private def applyBloomRowFilter(
      meta: OrcLiteMeta,
      rg: Int,
      batch: RowBatch,
      sargs: Seq[(Sarg, Int)],
      useCache: Boolean): RowBatch = {
    val blooms = sargs.collect { case (s: SargBloom, ci) => (s, ci) }
    if (blooms.isEmpty) return batch
    val probeVecs = blooms.map { case (_, ci) => fetchChunk(meta, rg, ci, useCache) }
    val keep = new Array[Boolean](batch.numRows)
    var kept = 0
    var i = 0
    while (i < batch.numRows) {
      var ok = true
      var b = 0
      while (ok && b < blooms.length) {
        val vec = probeVecs(b)
        val s = blooms(b)._1
        if (!vec.isNullAt(i)) {
          val v = vec.getLong(i)
          ok = v >= s.lo && v <= s.hi && s.bloom.mightContain(v)
        } else ok = false
        b += 1
      }
      keep(i) = ok
      if (ok) kept += 1
      i += 1
    }
    metrics.rowsFiltered.addAndGet((batch.numRows - kept).toLong)
    if (kept == batch.numRows) batch
    else RowBatch(batch.columns.map(filterVec(_, keep, kept)), kept, batch.columnNames)
  }

  private def filterVec(vec: ColumnVec, keep: Array[Boolean], kept: Int): ColumnVec = {
    val nulls = new Array[Boolean](kept)
    val longs = if (vec.longs != null) new Array[Long](kept) else null
    val doubles = if (vec.doubles != null) new Array[Double](kept) else null
    val strings = if (vec.strings != null) new Array[String](kept) else null
    var i = 0; var o = 0
    while (i < vec.n) {
      if (keep(i)) {
        nulls(o) = vec.nulls(i)
        if (longs != null) longs(o) = vec.longs(i)
        if (doubles != null) doubles(o) = vec.doubles(i)
        if (strings != null) strings(o) = vec.strings(i)
        o += 1
      }
      i += 1
    }
    new ColumnVec(vec.dataType, kept, nulls, longs, doubles, strings)
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

  /** Container mode between queries: no persistent daemon, so nothing
    * survives — both caches are dropped. */
  def dropAll(): Unit = { _cache.clear(); _metaCache.clear() }
}
