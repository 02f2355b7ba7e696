package repro.llap

import org.apache.spark.sql.types.LongType
import org.scalatest.funsuite.AnyFunSuite

class ChunkCacheSpec extends AnyFunSuite {

  private def vec(n: Int): ColumnVec = {
    val b = new ColumnVec.Builder(LongType, n)
    (1 to n).foreach(i => b.appendLong(i.toLong))
    b.result()
  }

  private def key(f: String, rg: Int = 0, c: Int = 0) = ChunkKey(f, rg, c)

  test("get after put hits; unknown keys miss") {
    val cache = new ChunkCache(1 << 20)
    cache.put(key("f1"), vec(10))
    assert(cache.get(key("f1")).isDefined)
    assert(cache.get(key("f2")).isEmpty)
    assert(cache.hits.get == 1 && cache.misses.get == 1)
  }

  test("eviction keeps usage within capacity") {
    val v = vec(100) // ~900 bytes
    val cache = new ChunkCache(v.sizeBytes * 3 + 10)
    (1 to 10).foreach(i => cache.put(key(s"f$i"), vec(100)))
    assert(cache.usedBytes <= cache.capacityBytes)
    assert(cache.entryCount <= 3)
    assert(cache.evictions.get >= 7)
  }

  test("LRFU: a frequently-accessed chunk survives over a once-used one") {
    val v = vec(100)
    val cache = new ChunkCache(v.sizeBytes * 2 + 10)
    cache.put(key("hot"), vec(100))
    cache.put(key("cold"), vec(100))
    (1 to 20).foreach(_ => cache.get(key("hot")))
    cache.put(key("new"), vec(100)) // forces one eviction
    assert(cache.contains(key("hot")), "frequently used chunk was evicted")
    assert(!cache.contains(key("cold")))
  }

  test("LRFU decays: an old burst loses to sustained recent access") {
    val v = vec(100)
    val cache = new ChunkCache(v.sizeBytes * 2 + 10, lambda = 0.5)
    cache.put(key("burst"), vec(100))
    (1 to 10).foreach(_ => cache.get(key("burst"))) // old burst
    cache.put(key("steady"), vec(100))
    (1 to 40).foreach(_ => cache.get(key("steady"))) // decays burst's CRF
    cache.put(key("new"), vec(100))
    assert(cache.contains(key("steady")))
    assert(!cache.contains(key("burst")), "decay should let the stale burst go")
  }

  test("oversized chunks are not admitted (no cache trashing)") {
    val cache = new ChunkCache(100)
    cache.put(key("big"), vec(1000))
    assert(cache.entryCount == 0 && cache.usedBytes == 0)
  }

  test("duplicate put is a no-op (no double accounting)") {
    val cache = new ChunkCache(1 << 20)
    cache.put(key("a"), vec(10))
    val used = cache.usedBytes
    cache.put(key("a"), vec(10))
    assert(cache.usedBytes == used && cache.entryCount == 1)
  }

  test("clear empties everything") {
    val cache = new ChunkCache(1 << 20)
    (1 to 5).foreach(i => cache.put(key(s"f$i"), vec(10)))
    cache.clear()
    assert(cache.entryCount == 0 && cache.usedBytes == 0)
  }
}

class MetaCacheSpec extends AnyFunSuite {
  import java.io.File
  import java.nio.file.Files
  import org.apache.spark.sql.Row
  import org.apache.spark.sql.types._

  private val schema = StructType(Seq(StructField("k", LongType)))

  test("second read of an unchanged file is a metadata hit") {
    val f = new File(Files.createTempDirectory("meta").toFile, "a.orclite")
    OrcLite.write(f, schema, (1 to 10).iterator.map(i => Row(i.toLong)))
    val mc = new MetaCache
    mc.get(f); mc.get(f)
    assert(mc.hits.get == 1 && mc.misses.get == 1)
  }

  test("a rewritten file is re-read (ETag-style validity)") {
    val f = new File(Files.createTempDirectory("meta").toFile, "a.orclite")
    OrcLite.write(f, schema, (1 to 10).iterator.map(i => Row(i.toLong)))
    val mc = new MetaCache
    assert(mc.get(f).totalRows == 10)
    Thread.sleep(5)
    OrcLite.write(f, schema, (1 to 25).iterator.map(i => Row(i.toLong)))
    assert(mc.get(f).totalRows == 25, "stale metadata served after file update")
    assert(mc.misses.get == 2)
  }
}
