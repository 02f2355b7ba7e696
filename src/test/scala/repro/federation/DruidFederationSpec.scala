package repro.federation.druid

import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.federation.jdbc.DuckDbStorageHandler
import repro.metastore.TableDesc

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
      "SELECT SUM(m1) AS s FROM druid_table_1 WHERE __time >= 0 AND __time <= 999")
    val pushed = f.pushdown(df).get
    pushed.df.collect()
    // Bound on the segment key is a filter, not an interval, in this sim;
    // verify via an explicit interval query that pruning machinery works
    f.sim.execute(pushed.query.copy(intervals = Some((0.0, 999.0))))
    assert(f.sim.lastSegmentsPruned > 0)
  }

  test("DruidStorageHandler round trip: create datasource from a DataFrame") {
    val sim2 = new DruidSim
    val fed2 = new DruidFederation(spark, sim2)
    val handler = new DruidStorageHandler(spark, fed2)
    val desc = repro.metastore.TableDesc("druid_table_2",
      events.schema, "", storageHandler = "druid",
      properties = Map("druid.datasource" -> "ds2", "druid.segment.key" -> "__time"))
    handler.outputFormat(events.limit(1000), desc)
    assert(spark.table("druid_table_2").count() == 1000)
    handler.metastoreHook(repro.federation.TableDropped("druid_table_2"))
    assert(!spark.catalog.tableExists("druid_table_2"))
  }

  // Pushdown equivalence: every pushed query must return what Spark returns
  // without pushdown, on both targets, Druid (JSON) and DuckDB (SQL over
  // JDBC). Each row of `queries` is one query over `typed`.

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

  test("pushed queries on Druid and DuckDB equal the unpushed Spark result") {
    typed.createOrReplaceTempView("typed")
    val sim = new DruidSim
    sim.createDataSource("typed_ds", typed)
    val fed = new DruidFederation(spark, sim)
    fed.registerExternalTable("typed_druid", "typed_ds")
    val duck = new DuckDbStorageHandler(spark)
    duck.outputFormat(typed, TableDesc("typed_duck", typed.schema, ""))
    typed.createOrReplaceTempView("typed_duck")
    def sql(template: String, table: String): DataFrame = spark.sql(template.replace("$T", table))
    // every row runs on both targets; the test reports all mismatches at once
    val failures = try queries.flatMap { case (name, q) =>
      val expected = canon(sql(q, "typed").collect().toSeq)
      def check(target: String, pushed: => Option[(DataFrame, String)]): Option[String] =
        Try(pushed.map { case (df, shown) => (canon(df.collect().toSeq), shown) }) match {
          case Success(Some((got, _))) if got == expected => None
          case Success(Some((got, shown))) => Some(s"$name on $target: $got, expected $expected; $shown")
          case Success(None) => Some(s"$name: not pushed to $target")
          case Failure(e) => Some(s"$name on $target: $e")
        }
      check("Druid", fed.pushdown(sql(q, "typed_druid")).map(p => (p.df, p.query.toJson))) ++
        check("DuckDB", duck.pushdown(sql(q, "typed_duck")))
    } finally duck.close()
    assert(failures.isEmpty, failures.mkString("\n", "\n", ""))
  }
}

class DuckDbHandlerSpec extends SparkSpec {

  private lazy val handler = new DuckDbStorageHandler(spark)

  private lazy val sales = spark.range(0, 5000).select(
    (col("id") % 100 + 1).as("item_sk"),
    ((col("id") % 500) / 10.0).as("price"),
    element_at(array(lit("x"), lit("y")), (col("id") % 2 + 1).cast("int")).as("tag"))

  private def ensure(): Unit = {
    if (!handler.registeredTables.contains("jsales")) {
      handler.outputFormat(sales, TableDesc("jsales", sales.schema, ""))
      sales.createOrReplaceTempView("jsales")
    }
  }

  test("outputFormat ships a DataFrame into DuckDB; inputFormat reads it back") {
    ensure()
    val back = handler.inputFormat(spark, TableDesc("jsales", sales.schema, ""), None)
    assert(back.count() == 5000)
  }

  test("pushdown generates SQL and matches Spark execution") {
    ensure()
    val df = spark.sql(
      "SELECT tag, SUM(price) AS s, COUNT(*) AS c FROM jsales WHERE item_sk <= 50 GROUP BY tag")
    val (result, sql) = handler.pushdown(df).get
    assert(sql.toLowerCase.contains("group by tag"))
    assert(sql.contains("item_sk <= 50"))
    val expect = df.collect().map(r => (r.getString(0), math.round(r.getDouble(1)), r.getLong(2))).toSet
    val got = result.collect().map(r => (r.getString(0), math.round(r.getDouble(1)), r.getLong(2))).toSet
    assert(got == expect)
  }

  test("pushed SQL executes the join inside DuckDB") {
    ensure()
    val dim = spark.range(1, 101).select(col("id").as("d_sk"),
      element_at(array(lit("p"), lit("q")), (col("id") % 2 + 1).cast("int")).as("cat"))
    handler.outputFormat(dim, TableDesc("jdim", dim.schema, ""))
    dim.createOrReplaceTempView("jdim")
    val df = spark.sql(
      """SELECT cat, COUNT(*) AS c FROM jsales, jdim
        |WHERE item_sk = d_sk AND cat = 'p' GROUP BY cat""".stripMargin)
    val (result, sql) = handler.pushdown(df).get
    assert(sql.contains("item_sk = d_sk") || sql.contains("d_sk = item_sk"))
    assert(result.collect().map(r => (r.getString(0), r.getLong(1))).toSet ==
      df.collect().map(r => (r.getString(0), r.getLong(1))).toSet)
  }

  test("metastore hook drops the external table") {
    ensure()
    val tmp = spark.range(3).select(col("id").as("k"))
    handler.outputFormat(tmp, TableDesc("jtmp", tmp.schema, ""))
    assert(handler.registeredTables.contains("jtmp"))
    handler.metastoreHook(repro.federation.TableDropped("jtmp"))
    assert(!handler.registeredTables.contains("jtmp"))
  }
}
