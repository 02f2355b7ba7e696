package repro.core

import repro.SparkSpec

class SpjaSpec extends SparkSpec with StarFixture {

  private lazy val sources: Set[String] = { starCatalog(); Set("store_sales", "date_dim", "item") }

  private def extract(sql: String): Option[SpjaQuery] = {
    val s = sources // force fixture init before parsing the SQL
    Spja.extract(spark.sql(sql).queryExecution.analyzed, s)
  }

  test("simple SPJA: tables, join, filters, group, aggregates") {
    val q = extract(
      """SELECT d_year, SUM(ss_sales_price) AS sum_sales, COUNT(*) AS cnt
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year > 2017
        |GROUP BY d_year""".stripMargin).get
    assert(q.tables == Set("store_sales", "date_dim"))
    assert(q.joins == Set(("d_date_sk", "ss_sold_date_sk")))
    assert(q.doms == Map("d_year" -> NumDom(2017, false, Double.PositiveInfinity, true, None)))
    assert(q.groupBy.get == Seq("d_year"))
    assert(q.aggs.map(a => (a.func, a.arg)) ==
      Seq(("sum", Some("ss_sales_price")), ("count_star", None)))
    assert(q.outOrder == Seq("d_year", "sum_sales", "cnt"))
  }

  test("explicit JOIN ... ON syntax extracts identically") {
    val a = extract(
      """SELECT d_year, SUM(ss_sales_price) AS s FROM store_sales
        |JOIN date_dim ON ss_sold_date_sk = d_date_sk GROUP BY d_year""".stripMargin).get
    val b = extract(
      """SELECT d_year, SUM(ss_sales_price) AS s FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk GROUP BY d_year""".stripMargin).get
    assert(a == b)
  }

  test("three-way join") {
    val q = extract(
      """SELECT i_category, SUM(ss_sales_price) AS s
        |FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |GROUP BY i_category""".stripMargin).get
    assert(q.tables.size == 3 && q.joins.size == 2)
  }

  test("IN, string equality, and range predicates classify correctly") {
    val q = extract(
      """SELECT COUNT(*) AS c FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |AND d_moy IN (1,2,3) AND i_category = 'Sports' AND ss_quantity <= 5
        |""".stripMargin).get
    assert(q.doms == Map(
      "d_moy" -> NumDom(Double.NegativeInfinity, true, Double.PositiveInfinity, true, Some(Set(1.0, 2.0, 3.0))),
      "i_category" -> StrDom(Set("Sports")),
      "ss_quantity" -> NumDom(Double.NegativeInfinity, true, 5, true, None)))
  }

  test("global aggregate has empty group list") {
    val q = extract("SELECT SUM(ss_sales_price) AS s FROM store_sales").get
    assert(q.groupBy.contains(Seq.empty))
  }

  test("SPJ (no aggregate) records the projection") {
    val q = extract(
      """SELECT ss_item_sk, d_year FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year = 2018""".stripMargin).get
    assert(!q.isAggregate)
    assert(q.outCols == Seq(("ss_item_sk", "ss_item_sk"), ("d_year", "d_year")))
    // numeric equality is the one-value IN-set
    assert(q.doms == Map("d_year" ->
      NumDom(Double.NegativeInfinity, true, Double.PositiveInfinity, true, Some(Set(2018.0)))))
  }

  test("aliased projection keeps source column and output name") {
    val q = extract("SELECT ss_item_sk AS sk FROM store_sales").get
    assert(q.outCols == Seq(("ss_item_sk", "sk")))
  }

  test("min/max/count(col) aggregate specs") {
    val q = extract(
      """SELECT MIN(ss_quantity) AS mn, MAX(ss_quantity) AS mx,
        |COUNT(ss_item_sk) AS c FROM store_sales""".stripMargin).get
    assert(q.aggs.map(_.func) == Seq("min", "max", "count"))
  }

  test("sum over arithmetic expression canonicalizes") {
    val q = extract(
      "SELECT SUM(ss_sales_price * ss_quantity) AS rev FROM store_sales").get
    assert(q.aggs.head.arg.contains("(ss_sales_price * ss_quantity)"))
    assert(q.aggs.head.argCols == Set("ss_sales_price", "ss_quantity"))
  }

  test("unsupported shapes fail extraction: outer join") {
    assert(extract(
      """SELECT COUNT(*) AS c FROM store_sales LEFT JOIN date_dim
        |ON ss_sold_date_sk = d_date_sk""".stripMargin).isEmpty)
  }

  test("unsupported shapes fail extraction: DISTINCT aggregate") {
    assert(extract("SELECT COUNT(DISTINCT ss_item_sk) AS c FROM store_sales").isEmpty)
  }

  test("unsupported shapes fail extraction: OR filter") {
    assert(extract(
      "SELECT COUNT(*) AS c FROM store_sales WHERE ss_quantity = 1 OR ss_quantity = 2").isEmpty)
  }

  test("unsupported shapes fail extraction: AVG") {
    assert(extract("SELECT AVG(ss_sales_price) AS a FROM store_sales").isEmpty)
  }

  test("unknown source tables fail extraction") {
    spark.range(3).toDF("x").createOrReplaceTempView("mystery")
    assert(extract("SELECT COUNT(*) AS c FROM mystery").isEmpty)
  }

  test("filter literal on either side of the comparison") {
    val a = extract("SELECT COUNT(*) AS c FROM date_dim WHERE d_year > 2017").get
    val b = extract("SELECT COUNT(*) AS c FROM date_dim WHERE 2017 < d_year").get
    assert(a.doms == b.doms)
  }
}
