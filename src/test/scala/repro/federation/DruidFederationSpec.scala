package repro.federation.druid

import scala.util.{Failure, Success, Try}

import com.fasterxml.jackson.databind.ObjectMapper

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}

class DruidFederationSpec extends SparkSpec {

  private lazy val events = spark.range(0, 20000).select(
    col("id").as("__time"),
    element_at(array(lit("a"), lit("b"), lit("c"), lit("d")),
      (col("id") % 4 + 1).cast("int")).as("d1"),
    (col("id") % 100).cast("double").as("m1"),
    (col("id") % 7).as("year_ish"))

  private lazy val fed = {
    val sim = new DruidSim
    sim.createDataSource("my_druid_source", events, segmentKey = Some("__time"))
    val f = new DruidFederation(spark, sim)
    f.registerExternalTable("druid_table_1", "my_druid_source")
    f
  }

  test("external table registration infers schema from Druid metadata") {
    val t = { fed; spark.table("druid_table_1") }
    assert(t.schema.fieldNames.toSeq == Seq("__time", "d1", "m1", "year_ish"))
    assert(t.count() == 20000)
  }

  test("Figure 6 query pushes groupBy/filter/sort/limit into Druid") {
    val f = fed
    val df = spark.sql(
      """SELECT d1, SUM(m1) AS s FROM druid_table_1
        |WHERE year_ish >= 2 AND year_ish <= 4
        |GROUP BY d1 ORDER BY s DESC LIMIT 10""".stripMargin)
    val pushed = f.pushdown(df).get
    assert(pushed.query.queryType == "groupBy")
    assert(pushed.query.dimensions == Seq("d1"))
    assert(pushed.query.aggregations == Seq(DruidAgg("doubleSum", "s", "m1")))
    assert(pushed.query.limitSpec.contains(LimitSpec(10, Seq(("s", true)))))
    assert(pushed.query.toJson.contains(""""queryType": "groupBy""""))
    // results equal un-pushed execution
    val expect = df.collect().map(r => (r.getString(0), math.round(r.getDouble(1)))).toSeq
    val got = pushed.df.collect().map(r => (r.getString(0), math.round(r.getDouble(1)))).toSeq
    assert(got == expect)
  }

  test("pushed aggregate matches DuckDB") {
    val f = fed
    val df = spark.sql(
      "SELECT d1, SUM(m1) AS s, COUNT(*) AS c FROM druid_table_1 GROUP BY d1")
    val pushed = f.pushdown(df).get
    Oracle.assertEquivalent(
      pushed.df,
      "SELECT d1, SUM(m1::DOUBLE) AS s, COUNT(*) AS c FROM events GROUP BY d1",
      "events" -> events)
  }

  test("global aggregate becomes a timeseries query") {
    val f = fed
    val df = spark.sql("SELECT SUM(m1) AS s FROM druid_table_1 WHERE d1 = 'a'")
    val pushed = f.pushdown(df).get
    assert(pushed.query.queryType == "timeseries")
    assert(pushed.query.filter.contains(Selector("d1", "a")))
    val expect = events.filter(col("d1") === "a").agg(sum("m1")).collect()(0).getDouble(0)
    assert(math.abs(pushed.df.collect()(0).getDouble(0) - expect) < 1e-6)
  }

  test("IN and string filters map to Druid filters") {
    val f = fed
    val df = spark.sql(
      "SELECT COUNT(*) AS c FROM druid_table_1 WHERE d1 IN ('a','b') AND m1 >= 50")
    val pushed = f.pushdown(df).get
    val json = pushed.query.toJson
    assert(json.contains(""""type": "in"""") && json.contains(""""type": "bound""""))
    assert(pushed.df.collect()(0).getLong(0) ==
      events.filter(col("d1").isin("a", "b") && col("m1") >= 50).count())
  }

  test("queries over non-Druid tables are not pushed") {
    val f = fed
    events.createOrReplaceTempView("plain_events")
    assert(f.pushdown(spark.sql("SELECT COUNT(*) AS c FROM plain_events")).isEmpty)
  }

  test("joins are not pushed to Druid") {
    val f = fed
    spark.range(4).select(col("id").as("k")).createOrReplaceTempView("small_t")
    val df = spark.sql(
      "SELECT COUNT(*) AS c FROM druid_table_1, small_t WHERE year_ish = k")
    assert(f.pushdown(df).isEmpty)
  }

  test("segment pruning happens for interval-style filters pushed on the key") {
    val f = fed
    val df = spark.sql(
      """SELECT COUNT(*) AS c FROM druid_table_1
        |WHERE __time >= 2000 AND __time <= 2999 AND d1 IN ('a', 'b', 'c', 'd')""".stripMargin)
    val pushed = f.pushdown(df).get
    // the bound on the key sits inside the filter's `and`
    assert(pushed.query.filter.contains(AndFilter(Seq(
      Bound("__time", Some(2000.0), Some(2999.0)), InFilter("d1", Seq("a", "b", "c", "d"))))))
    assert(df.collect()(0).getLong(0) == 1000) // unpushed: a scan of all 16 segments
    assert(pushed.df.collect()(0).getLong(0) == 1000)
    // 16 segments of 1 250 keys: the bound meets [1250, 2499] and [2500, 3749]
    assert(f.sim.lastSegmentsScanned == 2 && f.sim.lastSegmentsPruned == 14)
  }

  test("a key from 2^53 on is not pushed, so Spark's exact answer comes back") {
    val f = fed
    val big = 1L << 53
    f.sim.createDataSource("big_ds", spark.range(1).select(explode(array(lit(big), lit(big + 1))).as("k")))
    f.registerExternalTable("big_druid", "big_ds")
    // as doubles, 2^53 and 2^53 + 1 are one value: a pushed filter would match both rows
    val df = spark.sql(s"SELECT COUNT(*) AS c FROM big_druid WHERE k = ${big + 1}")
    val pushed = f.pushdown(df)
    assert(pushed.fold(df)(_.df).collect()(0).getLong(0) == 1)
    assert(pushed.isEmpty)
  }

  // Pushdown equivalence: every query pushed to Druid must return what Spark
  // returns without pushdown and render valid JSON. Each row of `queries` is
  // one query over `typed`.

  /** 100 rows: k 0..99 (LONG), x = k % 5 (DOUBLE), d = 2020-01-01 + k % 10
    * days (DATE), s cycling over a, o'b, c (STRING). */
  private lazy val typed = spark.range(0, 100).select(
    col("id").as("k"),
    (col("id") % 5).cast("double").as("x"),
    date_add(lit("2020-01-01").cast("date"), (col("id") % 10).cast("int")).as("d"),
    element_at(array(lit("a"), lit("o'b"), lit("c")), (col("id") % 3 + 1).cast("int")).as("s"))

  private val queries: Seq[(String, String)] = Seq(
    "strict range" -> "SELECT COUNT(*) AS c FROM $T WHERE k > 10 AND k < 50",
    "inclusive range, long sum" -> "SELECT SUM(k) AS sk FROM $T WHERE k >= 10 AND k <= 50",
    "double range, double sum" -> "SELECT SUM(x) AS sx FROM $T WHERE x > 1.5",
    "IN on a DOUBLE column" -> "SELECT COUNT(*) AS c FROM $T WHERE x IN (1.0, 2.0)",
    "IN on a LONG column" -> "SELECT COUNT(k) AS c FROM $T WHERE k IN (1, 2, 3)",
    "IN on a DATE column" ->
      "SELECT COUNT(*) AS c FROM $T WHERE d IN (DATE'2020-01-02', DATE'2020-01-03')",
    "DATE range" -> "SELECT COUNT(*) AS c FROM $T WHERE d >= DATE'2020-01-05'",
    "string = with a quote" -> """SELECT COUNT(*) AS c FROM $T WHERE s = "o'b"""",
    "string IN" ->
      """SELECT s, SUM(x) AS sx, COUNT(*) AS c FROM $T WHERE s IN ('a', "o'b") GROUP BY s""",
    "string with a double quote and a backslash" ->
      """SELECT s, COUNT(*) AS c FROM $T WHERE s IN ('a', 'q"\\z') GROUP BY s""",
    "sum, count, count(*), min, max" ->
      """SELECT s, SUM(k) AS sk, SUM(x) AS sx, COUNT(x) AS cx, COUNT(*) AS c,
        |MIN(x) AS mn, MAX(k) AS mx FROM $T GROUP BY s""".stripMargin,
    "global aggregate over no rows" ->
      "SELECT COUNT(*) AS c, SUM(x) AS sx, MIN(k) AS mn, MAX(x) AS mx FROM $T WHERE k > 1000")

  /** Rows as sorted strings; numbers compared at 9 significant digits, so a
    * LONG and a DOUBLE of the same value agree. */
  private def canon(rows: Seq[Row]): Seq[String] = rows.map(_.toSeq.map {
    case null      => "null"
    case n: Number => f"${n.doubleValue}%.9e"
    case v         => v.toString
  }.mkString("|")).sorted

  test("pushed Druid queries equal the unpushed Spark result") {
    typed.createOrReplaceTempView("typed")
    val sim = new DruidSim
    sim.createDataSource("typed_ds", typed)
    val fed = new DruidFederation(spark, sim)
    fed.registerExternalTable("typed_druid", "typed_ds")
    def sql(template: String, table: String): DataFrame = spark.sql(template.replace("$T", table))
    val druidJson = new ObjectMapper
    // the test reports the mismatches of all rows at once
    val failures = queries.flatMap { case (name, q) =>
      val expected = canon(sql(q, "typed").collect().toSeq)
      Try(fed.pushdown(sql(q, "typed_druid")).map { p =>
        val json = p.query.toJson
        druidJson.readTree(json) // throws on invalid JSON
        (canon(p.df.collect().toSeq), json)
      }) match {
        case Success(Some((got, _))) if got == expected => None
        case Success(Some((got, json))) => Some(s"$name: $got, expected $expected; $json")
        case Success(None) => Some(s"$name: not pushed to Druid")
        case Failure(e) => Some(s"$name: $e")
      }
    }
    assert(failures.isEmpty, failures.mkString("\n", "\n", ""))
  }
}
