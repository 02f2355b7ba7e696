package repro.llap

import java.nio.file.Files

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, SynthData}

class LlapProviderSpec extends SparkSpec {

  private lazy val dir = {
    val d = Files.createTempDirectory("llap_tbl").toFile
    val df = SynthData.lineitem(spark, sf = 0.002)
    LlapTables.writeTable(df, d, numFiles = 3, rowGroupSize = 2048)
    d
  }
  private lazy val reference = SynthData.lineitem(spark, sf = 0.002).cache()

  test("reading back an OrcLite table matches the source data (oracle)") {
    LlapIo.configure(128L << 20)
    val back = LlapTables.read(spark, dir)
    val q = back.groupBy("l_returnflag")
      .agg(count(lit(1)).as("cnt"), sum("l_extendedprice").as("total"))
    Oracle.assertEquivalent(
      q,
      """SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice::DOUBLE) AS total
        |FROM lineitem GROUP BY l_returnflag""".stripMargin,
      "lineitem" -> reference)
  }

  test("schema inference matches the written schema") {
    val back = LlapTables.read(spark, dir)
    assert(back.schema.fieldNames.toSeq == reference.schema.fieldNames.toSeq)
  }

  test("row counts match exactly") {
    assert(LlapTables.read(spark, dir).count() == reference.count())
  }

  test("column pruning: projecting one column caches only that column") {
    LlapIo.configure(128L << 20)
    LlapTables.read(spark, dir).select("l_orderkey").agg(sum("l_orderkey")).collect()
    val metaCols = {
      val files = LlapTableProvider.listFiles(dir)
      files.map(f => OrcLite.readMeta(f).schema.length).sum
    }
    assert(metaCols > 0)
    // chunks cached = row groups touched, never columns * groups
    val perFileGroups = LlapTableProvider.listFiles(dir).map(f => OrcLite.readMeta(f).rowGroups).sum
    assert(LlapIo.cache.entryCount == perFileGroups,
      s"expected one chunk per row group, got ${LlapIo.cache.entryCount} for $perFileGroups groups")
  }

  test("filter pushdown skips row groups (l_orderkey range)") {
    LlapIo.configure(128L << 20)
    LlapIo.elevator.metrics.reset()
    val maxKey = reference.agg(max("l_orderkey")).collect()(0).getLong(0)
    val out = LlapTables.read(spark, dir)
      .filter(col("l_orderkey") > maxKey) // empty result, above every row group max
      .count()
    assert(out == 0)
    assert(LlapIo.elevator.metrics.rowGroupsSkipped.get > 0, "no row-group pruning happened")
    // GreaterThan maps to a range sarg with an exclusive lower bound: even
    // the boundary group of each file, whose max is maxKey, is skipped.
    assert(LlapIo.elevator.metrics.rowGroupsRead.get <= 3)
    assert(LlapIo.elevator.metrics.rowGroupsSkipped.get >
      LlapIo.elevator.metrics.rowGroupsRead.get)
  }

  test("filters still produce exact results (pushdown is IO-only)") {
    val back = LlapTables.read(spark, dir)
    val q = back.filter(col("l_quantity") > 25.0)
      .agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      q,
      "SELECT COUNT(*) AS cnt FROM lineitem WHERE l_quantity::DOUBLE > 25.0",
      "lineitem" -> reference)
  }

  test("llap.enabled=false reads fresh and leaves the cache cold") {
    LlapIo.configure(128L << 20)
    LlapTables.read(spark, dir, llapEnabled = false).count()
    assert(LlapIo.cache.entryCount == 0)
  }

  test("warm cache serves the second identical scan without misses") {
    LlapIo.configure(256L << 20)
    val t = LlapTables.read(spark, dir)
    t.agg(sum("l_extendedprice")).collect()
    val misses0 = LlapIo.cache.misses.get
    t.agg(sum("l_extendedprice")).collect()
    assert(LlapIo.cache.misses.get == misses0, "second scan should be fully cached")
    assert(LlapIo.cache.hits.get > 0)
  }

  test("short name 'orclite' resolves via DataSourceRegister") {
    val back = spark.read.format("orclite").option("path", dir.getAbsolutePath).load()
    assert(back.count() == reference.count())
  }
}
