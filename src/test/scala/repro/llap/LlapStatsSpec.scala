package repro.llap

import java.io.File
import java.nio.file.Files

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.connector.read.SupportsReportStatistics
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, AdaptiveSparkPlanHelper}
import org.apache.spark.sql.execution.datasources.v2.DataSourceV2ScanRelation
import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec, SortMergeJoinExec}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types._

import repro.SparkSpec
import repro.tpcds.{TpcDsLite, TpcDsQueries}

/** The statistics an OrcLite scan reports to Spark, and the plans they buy. */
class LlapStatsSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private val schema = StructType(Seq(
    StructField("k", LongType), StructField("v", DoubleType), StructField("s", StringType)))

  /** Two files with k ascending in row groups of 1 000: 0–4 999 in five
    * groups, then 5 000–7 999 in three. */
  private lazy val dir: File = {
    val d = Files.createTempDirectory("llap_stats").toFile
    def write(name: String, ks: Range): Unit = {
      val rows = ks.iterator.map(k => Row(k.toLong, k * 0.5, s"s${k % 7}"))
      OrcLite.write(new File(d, name), schema, rows, rowGroupSize = 1000): Unit
    }
    write("part-00000.orclite", 0 until 5000)
    write("part-00001.orclite", 5000 until 8000)
    d
  }

  private def metas: Seq[OrcLiteMeta] = LlapTableProvider.listFiles(dir).map(OrcLite.readMeta)

  /** Encoded bytes of `cols` over every row group of the table. */
  private def chunkBytes(cols: String*): Long =
    metas.flatMap(m => m.index.toSeq.flatMap(g => cols.map(c => g(m.schema.fieldIndex(c)).length.toLong))).sum

  /** (numRows, sizeInBytes) the scan under `df` reports. */
  private def reported(df: DataFrame): (Long, Long) = {
    val scans = df.queryExecution.optimizedPlan.collect { case r: DataSourceV2ScanRelation => r.scan }
    assert(scans.size == 1)
    val st = scans.head.asInstanceOf[SupportsReportStatistics].estimateStatistics()
    (st.numRows.getAsLong, st.sizeInBytes.getAsLong)
  }

  private def table(llap: Boolean = true): DataFrame = LlapTables.read(spark, dir, llap)

  test("numRows is the rows written, sizeInBytes the required columns' chunk bytes") {
    assert(reported(table()) == ((8000L, chunkBytes("k", "v", "s"))))
    val (rows, pruned) = reported(table().select("v"))
    assert(rows == 8000L && pruned == chunkBytes("v"))
    assert(pruned < chunkBytes("k", "v", "s"))
  }

  test("a pushed filter lowers numRows by exactly the rows of the refuted row groups") {
    // k >= 6000 refutes all five groups of the first file and the first of the second
    assert(reported(table().filter(col("k") >= 6000).select("v")) == ((2000L, bytesFrom(6000, "k", "v"))))
    // an equality keeps the one group whose range and Bloom index admit it
    assert(reported(table().filter(col("k") === 4242))._1 == 1000L)
  }

  /** Encoded bytes of `cols` in the row groups whose keys start at `from` or above. */
  private def bytesFrom(from: Long, cols: String*): Long =
    metas.flatMap(m => m.index.toSeq.filter(g => g(0).min.exists(_ >= from))
      .flatMap(g => cols.map(c => g(m.schema.fieldIndex(c)).length.toLong))).sum

  test("an empty table directory reports 0 rows") {
    val empty = Files.createTempDirectory("llap_empty").toFile
    val df = spark.read.format("orclite").schema(schema).option("path", empty.getAbsolutePath).load()
    assert(reported(df) == ((0L, 0L)))
    assert(df.count() == 0)
  }

  test("container mode reports the same figures and leaves the caches cold") {
    LlapIo.configure(64L << 20)
    val (metaBefore, chunksBefore) = (LlapIo.metaCache.size, LlapIo.cache.entryCount)
    val container = Seq(table(llap = false), table(llap = false).filter(col("k") >= 6000).select("v"))
      .map(reported)
    assert(LlapIo.metaCache.size == metaBefore && LlapIo.cache.entryCount == chunksBefore)
    assert(container == Seq(table(), table().filter(col("k") >= 6000).select("v")).map(reported))
  }

  test("q03 over OrcLite views plans broadcast joins before AQE, with the same answer") {
    val s = spark.newSession()
    val threshold = SQLConf.AUTO_BROADCASTJOIN_THRESHOLD.key
    s.conf.set(threshold, SQLConf.AUTO_BROADCASTJOIN_THRESHOLD.defaultValue.get)
    val tables = Set("store_sales", "date_dim", "item")
    TpcDsLite.all(s, 0.01).filter { case (name, _) => tables(name) }.foreach { case (name, df) =>
      val d = Files.createTempDirectory(s"stats_$name").toFile
      LlapTables.writeTable(df, d)
      LlapTables.read(s, d).createOrReplaceTempView(name)
    }
    val q03 = TpcDsQueries.all.find(_.id == "q03").get.sql
    val broadcast = s.sql(q03)
    val plan = initialPlan(broadcast)
    assert(plan.collect { case j: BroadcastHashJoinExec => j }.nonEmpty, plan.treeString)
    assert(plan.collect { case j: SortMergeJoinExec => j }.isEmpty, plan.treeString)
    val answer = broadcast.collect()

    s.conf.set(threshold, "-1")
    val shuffled = s.sql(q03)
    assert(initialPlan(shuffled).collect { case j: SortMergeJoinExec => j }.nonEmpty)
    assert(answer.nonEmpty && canon(answer) == canon(shuffled.collect()))
    assert(spark.conf.get(threshold) == "-1", "the shared session's settings changed")
  }

  test("a misestimated join over OrcLite views is re-planned at runtime (AQE, §4.2)") {
    val s = spark.newSession()
    val fact = Files.createTempDirectory("aqe_fact").toFile
    val dim = Files.createTempDirectory("aqe_dim").toFile
    LlapTables.writeTable(s.range(40000).select((col("id") % 20000).as("k"), (col("id") * 0.5).as("v")), fact, 2)
    // 200 of the 20 000 dimension rows are "hot", spread over the shuffle partitions
    LlapTables.writeTable(s.range(20000).select(col("id").as("k"),
      when(col("id") % 100 === 0, "hot").otherwise(concat(lit("cold"), col("id") % 97)).as("s")), dim, 2)
    LlapTables.read(s, fact).createOrReplaceTempView("fact")
    LlapTables.read(s, dim).createOrReplaceTempView("dim")
    // a string equality is not pushed, so the footers estimate the whole dimension
    val query = "SELECT f.k, f.v, d.s FROM fact f JOIN dim d ON f.k = d.k WHERE d.s = 'hot'"
    val estimate = reported(s.table("dim").filter(col("s") === "hot"))._2
    s.conf.set(SQLConf.AUTO_BROADCASTJOIN_THRESHOLD.key, estimate / 2)

    val adaptive = s.sql(query)
    val answer = adaptive.collect()
    val plan = adaptive.queryExecution.executedPlan.asInstanceOf[AdaptiveSparkPlanExec]
    assert(plan.initialPlan.collect { case j: SortMergeJoinExec => j }.nonEmpty, plan.initialPlan.treeString)
    assert(collect(plan) { case j: BroadcastHashJoinExec => j }.nonEmpty, plan.treeString)

    s.conf.set(SQLConf.ADAPTIVE_EXECUTION_ENABLED.key, "false")
    val fixed = s.sql(query)
    assert(fixed.queryExecution.executedPlan.collect { case j: SortMergeJoinExec => j }.nonEmpty)
    assert(answer.length == 400 && canon(answer) == canon(fixed.collect()))
  }

  private def initialPlan(df: DataFrame): SparkPlan = df.queryExecution.executedPlan match {
    case a: AdaptiveSparkPlanExec => a.initialPlan
    case p => p
  }

  private def canon(rows: Array[Row]): Seq[String] =
    rows.toSeq.map(_.toSeq.map { case d: Double => f"$d%.6e"; case x => String.valueOf(x) }.mkString("|")).sorted
}
