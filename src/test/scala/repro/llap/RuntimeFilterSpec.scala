package repro.llap

import java.io.File
import java.nio.file.Files

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.{DynamicPruningExpression, Literal}
import org.apache.spark.sql.connector.read.SupportsRuntimeV2Filtering
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.datasources.v2.{BatchScanExec, DataSourceV2ScanRelation}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.internal.SQLConf

import repro.{Oracle, SparkSpec}
import repro.tpcds.TpcDsLite

/** Semijoin reduction (§4.6) as Spark's own dynamic pruning: a star join
  * in plain SQL hands the filtered dimension's keys to the OrcLite fact
  * scan, and the elevator skips the row groups no key reaches. */
class RuntimeFilterSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  /** 40 000 fact rows sorted by `f_key` (2 000 keys, 20 rows each), in one
    * file of 40 row groups, so each group holds a narrow key range. */
  private lazy val factDir: File = {
    val d = Files.createTempDirectory("rf_fact").toFile
    LlapTables.writeTable(spark.range(0, 40000).select(
      (col("id") / 20).cast("long").as("f_key"),
      (col("id") % 7).as("f_grp"),
      (col("id") % 97).cast("double").as("f_val")), d, numFiles = 1, rowGroupSize = 1024)
    d
  }

  /** A Parquet dimension over the 2 000 keys: keys 5–7 are "hot", 500–1 499
    * "wide", the rest "cold". Being file-backed, its tag filter stays in the
    * plan for Spark's dynamic pruning to see; being Parquet, it leaves the
    * elevator's counters to the fact scan. */
  private lazy val dimDir: File = {
    val d = Files.createTempDirectory("rf_dim").toFile
    spark.range(0, 2000).select(col("id").as("d_key"),
      when(col("id").between(5, 7), "hot").when(col("id").between(500, 1499), "wide")
        .otherwise("cold").as("d_tag"))
      .coalesce(1).write.mode("overwrite").parquet(d.getPath)
    d
  }

  /** A session that broadcasts small tables, with the fact and dimension
    * views, and Spark's dynamic pruning on or off. */
  private def session(pruning: Boolean = true): SparkSession = {
    val s = spark.newSession()
    s.conf.set(SQLConf.AUTO_BROADCASTJOIN_THRESHOLD.key, SQLConf.AUTO_BROADCASTJOIN_THRESHOLD.defaultValue.get)
    s.conf.set(SQLConf.DYNAMIC_PARTITION_PRUNING_ENABLED.key, pruning.toString)
    LlapTables.read(s, factDir).createOrReplaceTempView("fact")
    s.read.parquet(dimDir.getPath).createOrReplaceTempView("dim")
    s
  }

  private def starJoin(tag: String): String =
    s"""SELECT f.f_grp, SUM(f.f_val) AS sv, COUNT(*) AS n
       |FROM fact f JOIN dim d ON f.f_key = d.d_key
       |WHERE d.d_tag = '$tag' GROUP BY f.f_grp""".stripMargin

  /** Runs `query` in `s`; returns its rows and the elevator's (read, skipped). */
  private def run(s: SparkSession, query: String): (DataFrame, Seq[Row], (Long, Long)) = {
    LlapIo.elevator.metrics.reset()
    val df = s.sql(query)
    val rows = df.collect().toSeq
    val m = LlapIo.elevator.metrics
    (df, rows, (m.rowGroupsRead.get, m.rowGroupsSkipped.get))
  }

  /** The runtime filters of the OrcLite scans in `df`'s executed plan that
    * are not the trivially true stand-in Spark plans when it cannot reuse a
    * broadcast. */
  private def runtimeFilters(df: DataFrame): Seq[DynamicPruningExpression] =
    collect(df.queryExecution.executedPlan) { case b: BatchScanExec => b.runtimeFilters }.flatten
      .collect { case d: DynamicPruningExpression if !d.child.isInstanceOf[Literal] => d }

  private def withoutPruning(query: String): Seq[Row] = {
    val (df, rows, _) = run(session(pruning = false), query)
    assert(runtimeFilters(df).isEmpty)
    rows
  }

  private def canon(rows: Seq[Row]): Seq[String] =
    rows.map(_.toSeq.map { case d: Double => f"$d%.6e"; case x => String.valueOf(x) }.mkString("|")).sorted

  test("a filtered dimension's keys skip the clustered fact's row groups (§4.6 index semijoin)") {
    val s = session()
    val (df, rows, (read, skipped)) = run(s, starJoin("hot"))
    assert(runtimeFilters(df).size == 1, df.queryExecution.executedPlan.treeString)
    assert(skipped > read, s"read=$read skipped=$skipped")
    assert(rows.map(_.getLong(2)).sum == 60)
    assert(canon(rows) == canon(withoutPruning(starJoin("hot"))))
    Oracle.assertEquivalent(df,
      """SELECT f_grp::BIGINT AS f_grp, SUM(f_val::DOUBLE) AS sv, COUNT(*) AS n
        |FROM fact, dim
        |WHERE f_key::BIGINT = d_key::BIGINT AND d_tag = 'hot'
        |GROUP BY f_grp::BIGINT""".stripMargin,
      "fact" -> LlapTables.read(s, factDir), "dim" -> s.read.parquet(dimDir.getPath))
  }

  test("an IN set of 1 000 keys stays exact") {
    val s = session()
    val (df, rows, (read, skipped)) = run(s, starJoin("wide"))
    assert(runtimeFilters(df).size == 1, df.queryExecution.executedPlan.treeString)
    assert(read > 0 && skipped > 0, s"read=$read skipped=$skipped")
    assert(rows.map(_.getLong(2)).sum == 20000)
    assert(canon(rows) == canon(withoutPruning(starJoin("wide"))))
  }

  test("an empty filtered dimension reads no row group and returns no rows") {
    val s = session()
    // without adaptive execution the empty join is not cut short before
    // the scan, so the runtime filter itself must refute every row group
    s.conf.set(SQLConf.ADAPTIVE_EXECUTION_ENABLED.key, "false")
    val (df, rows, (read, skipped)) = run(s, starJoin("none"))
    assert(runtimeFilters(df).size == 1, df.queryExecution.executedPlan.treeString)
    assert(rows.isEmpty && read == 0 && skipped == 40, s"rows=${rows.size} read=$read skipped=$skipped")
    // the scan leaves the file out at planning: no task opens it
    val scans = collect(df.queryExecution.executedPlan) { case b: BatchScanExec => b }
    assert(scans.map(_.inputRDD.getNumPartitions) == Seq(0))
  }

  test("only range-clustered columns are offered: the TPC-DS fact's keys are not") {
    val d = Files.createTempDirectory("rf_store_sales").toFile
    LlapTables.writeTable(TpcDsLite.storeSales(spark, 1.0), d, numFiles = 8)
    def offered(dir: File): Set[String] =
      LlapTables.read(spark, dir).queryExecution.optimizedPlan.collect {
        case r: DataSourceV2ScanRelation => r.scan.asInstanceOf[SupportsRuntimeV2Filtering]
      }.flatMap(_.filterAttributes().map(_.fieldNames.mkString(".")).toSeq).toSet
    val keys = Set("ss_sold_date_sk", "ss_item_sk", "ss_customer_sk", "ss_store_sk")
    assert(offered(d).intersect(keys).isEmpty, offered(d))
    assert(offered(factDir) == Set("f_key"))
    // a sorted double is clustered too, but a join on it yields no filter the scan can take
    val doubles = Files.createTempDirectory("rf_double").toFile
    LlapTables.writeTable(spark.range(0, 4096).select(col("id").as("k"), (col("id") * 0.5).as("x")),
      doubles, numFiles = 1, rowGroupSize = 1024)
    assert(offered(doubles) == Set("k"))
  }
}
