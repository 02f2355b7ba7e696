package repro.llap

import java.io.File
import java.nio.file.Files

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite

import repro.core.NumDom

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

  private val inf = Double.PositiveInfinity
  private def range(lo: Double, hi: Double, loIncl: Boolean = true, hiIncl: Boolean = true) =
    NumDom(lo, loIncl, hi, hiIncl, None)
  private def in(vs: Double*) = NumDom(-inf, true, inf, true, Some(vs.toSet))

  test("full scan returns all rows of the projection") {
    val e = freshElevator()
    val total = e.scan(makeFile(), Seq("k", "v")).map(_.numRows).sum
    assert(total == 10000)
    assert(e.metrics.rowGroupsRead.get == 10 && e.metrics.rowGroupsSkipped.get == 0)
  }

  test("range sarg skips non-overlapping row groups") {
    val e = freshElevator()
    val total = e.scan(makeFile(), Seq("k"), Map("k" -> range(2500, 3500))).map(_.numRows).sum
    assert(total == 2000) // groups [2001..3000] and [3001..4000]
    assert(e.metrics.rowGroupsSkipped.get == 8)
  }

  test("strict range bounds skip the row groups that only touch them") {
    val e = freshElevator()
    val strict = range(1000, 3001, loIncl = false, hiIncl = false)
    val total = e.scan(makeFile(), Seq("k"), Map("k" -> strict)).map(_.numRows).sum
    assert(total == 2000) // [1..1000] ends at lo and [3001..4000] starts at hi
    assert(e.metrics.rowGroupsSkipped.get == 8)
  }

  test("strict filters map to exclusive bounds while doubles hold them exactly") {
    import org.apache.spark.sql.sources
    val big = (1L << 53) + 1
    def doms(f: sources.Filter): Map[String, NumDom] = {
      val (d, accepted) = LlapScanBuilder.toDoms(Array(f))
      assert(accepted.toSeq == (if (d.isEmpty) Seq.empty else Seq(f)))
      d
    }
    assert(doms(sources.GreaterThan("k", 5L)) == Map("k" -> range(5, inf, loIncl = false)))
    assert(doms(sources.LessThan("k", 9L)) == Map("k" -> range(-inf, 9, hiIncl = false)))
    assert(doms(sources.GreaterThan("k", big)) == Map("k" -> range(big.toDouble, inf)))
    // a double rounds 2^53 + 1 to 2^53: probing the Bloom index with it
    // could skip the group that holds the row, so no key at 2^53 is pushed
    assert(doms(sources.EqualTo("k", big)).isEmpty)
    assert(doms(sources.In("k", Array[Any](1L, big))).isEmpty)

    val f = new File(Files.createTempDirectory("elev").toFile, "big.orclite")
    OrcLite.write(f, schema, Iterator(Row(big, 1.0, "b")), rowGroupSize = 1000)
    val batches = freshElevator().scan(f, Seq("k"), doms(sources.EqualTo("k", big))).toSeq
    assert(batches.flatMap(b => (0 until b.numRows).map(b.columns(0).getLong)) == Seq(big))
  }

  test("equality sarg reads exactly one row group") {
    val e = freshElevator()
    val total = e.scan(makeFile(), Seq("k"), Map("k" -> in(4242))).map(_.numRows).sum
    assert(total == 1000)
    assert(e.metrics.rowGroupsRead.get == 1 && e.metrics.rowGroupsSkipped.get == 9)
  }

  test("In sarg prunes via min/max plus stored Bloom index") {
    val e = freshElevator()
    val total = e.scan(makeFile(), Seq("k"), Map("k" -> in(100, 9900))).map(_.numRows).sum
    assert(total == 2000)
    assert(e.metrics.rowGroupsSkipped.get == 8)
  }

  test("the Bloom index alone refutes absent keys inside a group's min/max") {
    // one group of the even keys 2..1000: every odd probe lies inside its
    // [min, max], so only the Bloom index can tell the key is absent
    val f = new File(Files.createTempDirectory("elev").toFile, "even.orclite")
    OrcLite.write(f, schema,
      (1 to 500).iterator.map(i => Row(i * 2L, i.toDouble, "e")), rowGroupSize = 500)
    val e = freshElevator()
    val skipped = (3 to 201 by 2).count { odd =>
      e.metrics.reset()
      e.scan(f, Seq("k"), Map("k" -> in(odd))).foreach(_ => ())
      e.metrics.rowGroupsRead.get == 0
    }
    assert(skipped >= 90, s"the Bloom index refuted only $skipped of 100 absent keys")
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
    val total = e.scan(makeFile(), Seq("s"), Map("k" -> in(1))).map(_.numRows).sum
    assert(total == 1000) // sarg on k still applies even when s is projected
  }

  test("missing column in scan is rejected") {
    val e = freshElevator()
    assertThrows[Exception](e.scan(makeFile(), Seq("nope")).foreach(_ => ()))
  }
}
