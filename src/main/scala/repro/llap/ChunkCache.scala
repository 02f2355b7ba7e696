package repro.llap

import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable

/** Cache address: (file identity, row group, column) — the row-column chunk
  * of Figure 5. The file key embeds length+mtime so file updates invalidate
  * naturally, like the ETag fields of blob stores (§5.1). */
final case class ChunkKey(fileKey: String, rowGroup: Int, column: Int)

/** Multi-tenant chunk cache with LRFU (Least Recently/Frequently Used)
  * eviction (§5.1).
  *
  * Each entry carries a CRF (combined recency-frequency) value
  * `crf = 1 + crf_old * 2^(-lambda * (now - lastAccess))`; eviction removes
  * the entry with the lowest decayed CRF. `lambda = 0` degenerates to LFU,
  * large lambda to LRU; the default is tuned for analytic scan patterns
  * (frequent full and partial scans). The eviction unit is the chunk.
  */
final class ChunkCache(val capacityBytes: Long, lambda: Double = 0.05) {

  private final class Entry(val vec: ColumnVec, var crf: Double, var lastTick: Long) {
    val size: Long = vec.sizeBytes
  }

  private val map = mutable.LinkedHashMap[ChunkKey, Entry]()
  private var tick = 0L
  private var used = 0L
  val hits = new AtomicLong; val misses = new AtomicLong; val evictions = new AtomicLong

  private def decayed(e: Entry, now: Long): Double =
    e.crf * math.pow(2.0, -lambda * (now - e.lastTick))

  def get(key: ChunkKey): Option[ColumnVec] = synchronized {
    tick += 1
    map.get(key) match {
      case Some(e) =>
        e.crf = 1.0 + decayed(e, tick); e.lastTick = tick
        hits.incrementAndGet()
        Some(e.vec)
      case None =>
        misses.incrementAndGet()
        None
    }
  }

  def put(key: ChunkKey, vec: ColumnVec): Unit = synchronized {
    tick += 1
    if (map.contains(key)) return
    val e = new Entry(vec, 1.0, tick)
    if (e.size > capacityBytes) return // single chunk larger than the cache
    map.put(key, e)
    used += e.size
    while (used > capacityBytes && map.nonEmpty) {
      val victim = map.minBy { case (_, en) => decayed(en, tick) }._1
      used -= map(victim).size
      map.remove(victim)
      evictions.incrementAndGet()
    }
  }

  def clear(): Unit = synchronized { map.clear(); used = 0 }
  def usedBytes: Long = synchronized(used)
  def entryCount: Int = synchronized(map.size)
  def contains(key: ChunkKey): Boolean = synchronized(map.contains(key))
}

/** Metadata cache: file metadata (schema + chunk index, including min/max
  * and Bloom indexes) is cached even for data never admitted to the data
  * cache, so predicate evaluation can skip chunks before issuing misses. */
final class MetaCache {
  private val map = new java.util.concurrent.ConcurrentHashMap[String, OrcLiteMeta]()
  val hits = new AtomicLong; val misses = new AtomicLong

  def get(path: java.io.File): OrcLiteMeta = {
    val key = path.getAbsolutePath
    val cached = map.get(key)
    // validity check via the ETag-like file key
    if (cached != null && cached.fileKey == OrcLite.fileKey(path)) {
      hits.incrementAndGet(); cached
    } else {
      misses.incrementAndGet()
      val meta = OrcLite.readMeta(path)
      map.put(key, meta)
      meta
    }
  }

  def clear(): Unit = map.clear()
  def size: Int = map.size
}
