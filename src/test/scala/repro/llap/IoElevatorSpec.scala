package repro.llap

import java.io.File
import java.nio.file.Files

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite

import repro.util.BloomFilter

class IoElevatorSpec extends AnyFunSuite {

  private val schema = StructType(Seq(
    StructField("k", LongType), StructField("v", DoubleType), StructField("s", StringType)))

  /** 10k rows, k = 1..10000 in order, 10 row groups of 1000. */
  private def makeFile(): File = {
    val f = new File(Files.createTempDirectory("elev").toFile, "t.orclite")
    OrcLite.write(f, schema,
      (1 to 10000).iterator.map(i => Row(i.toLong, i * 2.0, s"s${i % 7}")), rowGroupSize = 1000)
    f
  }

  private def freshElevator(): IoElevator =
    new IoElevator(new ChunkCache(64L << 20), new MetaCache)

  test("full scan returns all rows of the projection") {
    val e = freshElevator()
    val total = e.scan(makeFile(), Seq("k", "v")).map(_.numRows).sum
    assert(total == 10000)
    assert(e.metrics.rowGroupsRead.get == 10 && e.metrics.rowGroupsSkipped.get == 0)
  }

  test("range sarg skips non-overlapping row groups") {
    val e = freshElevator()
    val total = e.scan(makeFile(), Seq("k"), Seq(SargRange("k", 2500, 3500))).map(_.numRows).sum
    assert(total == 2000) // groups [2001..3000] and [3001..4000]
    assert(e.metrics.rowGroupsSkipped.get == 8)
  }

  test("strict range bounds skip the row groups that only touch them") {
    val e = freshElevator()
    val strict = SargRange("k", 1000, 3001, loIncl = false, hiIncl = false)
    val total = e.scan(makeFile(), Seq("k"), Seq(strict)).map(_.numRows).sum
    assert(total == 2000) // [1..1000] ends at lo and [3001..4000] starts at hi
    assert(e.metrics.rowGroupsSkipped.get == 8)
  }

  test("strict filters map to exclusive bounds while doubles hold them exactly") {
    import org.apache.spark.sql.sources
    val big = (1L << 53) + 1
    val (sargs, _) = LlapScanBuilder.toSargs(
      Array(sources.GreaterThan("k", 5L), sources.LessThan("k", 9L), sources.GreaterThan("k", big)), schema)
    assert(sargs == Seq(
      SargRange("k", 5, Double.MaxValue, loIncl = false),
      SargRange("k", Double.MinValue, 9, hiIncl = false),
      SargRange("k", big.toDouble, Double.MaxValue)))
  }

  test("equality sarg reads exactly one row group") {
    val e = freshElevator()
    val total = e.scan(makeFile(), Seq("k"), Seq(SargEquals("k", 4242))).map(_.numRows).sum
    assert(total == 1000)
    assert(e.metrics.rowGroupsRead.get == 1 && e.metrics.rowGroupsSkipped.get == 9)
  }

  test("In sarg prunes via min/max plus stored Bloom index") {
    val e = freshElevator()
    val total = e.scan(makeFile(), Seq("k"), Seq(SargIn("k", Set(100L, 9900L)))).map(_.numRows).sum
    assert(total == 2000)
    assert(e.metrics.rowGroupsSkipped.get == 8)
  }

  test("semijoin Bloom sarg prunes groups by range and filters rows") {
    val e = freshElevator()
    val keys = Set(1500L, 1501L, 1502L)
    val sarg = SargBloom("k", keys.min.toDouble, keys.max.toDouble, BloomFilter.of(keys))
    val batches = e.scan(makeFile(), Seq("k", "v"), Seq(sarg)).toSeq
    val rows = batches.map(_.numRows).sum
    assert(e.metrics.rowGroupsRead.get == 1, "range part of the reducer should prune groups")
    assert(rows >= 3 && rows <= 10, s"bloom row filter kept $rows rows (3 true + few fps)")
    val ks = batches.flatMap(b => (0 until b.numRows).map(b.columns(0).getLong))
    assert(keys.forall(ks.contains), "bloom filtering must never drop true matches")
  }

  test("second scan is served from the chunk cache") {
    val e = freshElevator()
    val f = makeFile()
    e.scan(f, Seq("k", "v")).foreach(_ => ())
    val missesAfterCold = e.cache.misses.get
    e.scan(f, Seq("k", "v")).foreach(_ => ())
    assert(e.cache.misses.get == missesAfterCold, "warm scan should not miss")
  }

  test("useCache=false bypasses the cache entirely") {
    val cache = new ChunkCache(64L << 20)
    val e = new IoElevator(cache, new MetaCache)
    e.scan(makeFile(), Seq("k"), useCache = false).foreach(_ => ())
    assert(cache.entryCount == 0 && cache.hits.get == 0 && cache.misses.get == 0)
  }

  test("projection only fetches requested columns into the cache") {
    val cache = new ChunkCache(64L << 20)
    val e = new IoElevator(cache, new MetaCache)
    e.scan(makeFile(), Seq("k")).foreach(_ => ())
    // 10 row groups x 1 column
    assert(cache.entryCount == 10)
  }

  test("string columns cannot prune (no stats) but still read correctly") {
    val e = freshElevator()
    val total = e.scan(makeFile(), Seq("s"), Seq(SargEquals("k", 1))).map(_.numRows).sum
    assert(total == 1000) // sarg on k still applies even when s is projected
  }

  test("missing column in scan is rejected") {
    val e = freshElevator()
    assertThrows[Exception](e.scan(makeFile(), Seq("nope")).foreach(_ => ()))
  }
}
