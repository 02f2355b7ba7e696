package repro.core

import org.apache.spark.sql.functions.{array, explode, lit}

import repro.{Oracle, SparkSpec}

/** Materialized view rewriting (§4.4) — Figure 4 scenarios and beyond.
  * Every rewrite is checked for result equality against the un-rewritten
  * query (and the key scenarios against DuckDB). */
class MvRewriteSpec extends SparkSpec with StarFixture {

  private lazy val cat: MvCatalog = {
    val c = starCatalog()
    c.createMaterializedView("mat_view",
      """SELECT d_year, d_moy, d_dom, SUM(ss_sales_price) AS sum_sales
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year > 2017
        |GROUP BY d_year, d_moy, d_dom""".stripMargin)
    c
  }

  private def rewriteOf(sql: String): Option[MvRewriter.Rewrite] = {
    val c = cat // force fixture init before parsing the SQL
    MvRewriter.rewrite(spark, spark.sql(sql), c)
  }

  test("Figure 4b: fully contained rewriting") {
    val sql =
      """SELECT SUM(ss_sales_price) AS sum_sales
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year = 2018 AND d_moy IN (1,2,3)
        |""".stripMargin
    val rw = rewriteOf(sql).get
    assert(rw.kind == MvRewriter.FullContainment && rw.view == "mat_view")
    // the optimized plan reads the cached MV — no join against the fact
    val opt = rw.df.queryExecution.optimizedPlan.toString
    assert(opt.contains("InMemoryRelation") && !opt.contains("Join Inner"),
      s"rewritten plan still recomputes the join:\n$opt")
    assertSameResult(rw.df, spark.sql(sql))
  }

  test("Figure 4b against DuckDB") {
    val sql =
      """SELECT SUM(ss_sales_price) AS sum_sales
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year = 2018 AND d_moy IN (1,2,3)
        |""".stripMargin
    val rw = rewriteOf(sql).get
    Oracle.assertEquivalent(
      rw.df,
      """SELECT SUM(ss_sales_price::DOUBLE) AS sum_sales
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year::INT = 2018
        |AND d_moy::INT IN (1,2,3)""".stripMargin,
      "store_sales" -> storeSales, "date_dim" -> dateDim)
  }

  test("Figure 4c: partially contained rewriting (UNION ALL with sources)") {
    val sql =
      """SELECT d_year, d_moy, SUM(ss_sales_price) AS sum_sales
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year > 2016
        |GROUP BY d_year, d_moy""".stripMargin
    val rw = rewriteOf(sql).get
    assert(rw.kind == MvRewriter.PartialContainment)
    assert(rw.df.queryExecution.analyzed.toString.toLowerCase.contains("union"),
      "partial rewrite must union the MV part with the recomputed slice")
    assertSameResult(rw.df, spark.sql(sql))
  }

  test("Figure 4c against DuckDB") {
    val sql =
      """SELECT d_year, d_moy, SUM(ss_sales_price) AS sum_sales
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year > 2016
        |GROUP BY d_year, d_moy""".stripMargin
    val rw = rewriteOf(sql).get
    Oracle.assertEquivalent(
      rw.df,
      """SELECT d_year::INT AS d_year, d_moy::INT AS d_moy,
        |SUM(ss_sales_price::DOUBLE) AS sum_sales
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year::INT > 2016
        |GROUP BY d_year::INT, d_moy::INT""".stripMargin,
      "store_sales" -> storeSales, "date_dim" -> dateDim)
  }

  test("partial rewrite over a view with a numeric equality (a one-value IN-set)") {
    val c2 = starCatalog()
    c2.createMaterializedView("mv_2018",
      """SELECT d_year, d_moy, SUM(ss_sales_price) AS sum_sales
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year = 2018
        |GROUP BY d_year, d_moy""".stripMargin)
    val sql =
      """SELECT d_year, d_moy, SUM(ss_sales_price) AS sum_sales
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year > 2016
        |GROUP BY d_year, d_moy""".stripMargin
    val rw = MvRewriter.rewrite(spark, spark.sql(sql), c2).get
    assert(rw.kind == MvRewriter.PartialContainment && rw.view == "mv_2018")
    assertSameResult(rw.df, spark.sql(sql))
    c2.drop("mv_2018")
  }

  test("rollup: group-by subset of the view's grouping") {
    val sql =
      """SELECT d_year, SUM(ss_sales_price) AS sum_sales
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year > 2017
        |GROUP BY d_year""".stripMargin
    val rw = rewriteOf(sql).get
    assert(rw.kind == MvRewriter.FullContainment)
    assertSameResult(rw.df, spark.sql(sql))
  }

  test("COUNT(*) rolls up as SUM of the view's count") {
    val c2 = starCatalog()
    c2.createMaterializedView("mv_cnt",
      """SELECT d_year, COUNT(*) AS cnt FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk GROUP BY d_year""".stripMargin)
    val sql =
      """SELECT COUNT(*) AS cnt FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year = 2018""".stripMargin
    val rw = MvRewriter.rewrite(spark, spark.sql(sql), c2).get
    assertSameResult(rw.df, spark.sql(sql))
    c2.drop("mv_cnt")
  }

  test("no rewrite when the query's filter is not contained (no partial possible on string)") {
    val c2 = starCatalog()
    c2.createMaterializedView("mv_sports",
      """SELECT ss_item_sk AS ss_item_sk, SUM(ss_sales_price) AS s
        |FROM store_sales, item
        |WHERE ss_item_sk = i_item_sk AND i_category = 'Sports'
        |GROUP BY ss_item_sk""".stripMargin)
    val q = spark.sql(
      """SELECT SUM(ss_sales_price) AS s FROM store_sales, item
        |WHERE ss_item_sk = i_item_sk AND i_category = 'Books'""".stripMargin)
    assert(MvRewriter.rewrite(spark, q, c2).isEmpty)
    c2.drop("mv_sports")
  }

  test("no rewrite when tables differ") {
    val q = spark.sql(
      """SELECT SUM(ss_sales_price) AS s FROM store_sales, item
        |WHERE ss_item_sk = i_item_sk""".stripMargin)
    assert(MvRewriter.rewrite(spark, q, cat).isEmpty)
  }

  test("no rewrite when a needed group column is missing from the view") {
    val sql =
      """SELECT ss_item_sk, SUM(ss_sales_price) AS s
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year > 2017
        |GROUP BY ss_item_sk""".stripMargin
    assert(rewriteOf(sql).isEmpty, "ss_item_sk is not in the MV's grouping")
  }

  test("aggregate over a denormalized SPJ view (the Fig 8 shape)") {
    val c2 = starCatalog()
    c2.createMaterializedView("mv_denorm",
      """SELECT ss_item_sk, ss_sales_price, ss_quantity, d_year, d_moy, i_category
        |FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk""".stripMargin)
    val sql =
      """SELECT d_year, SUM(ss_sales_price * ss_quantity) AS rev
        |FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |AND i_category = 'Sports'
        |GROUP BY d_year""".stripMargin
    val rw = MvRewriter.rewrite(spark, spark.sql(sql), c2).get
    assert(rw.kind == MvRewriter.FullContainment && rw.view == "mv_denorm")
    assertSameResult(rw.df, spark.sql(sql))
    c2.drop("mv_denorm")
  }

  test("ORDER BY / LIMIT are peeled and re-applied") {
    val c2 = starCatalog()
    c2.createMaterializedView("mv_denorm2",
      """SELECT ss_sales_price, d_year, d_moy
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk""".stripMargin)
    val sql =
      """SELECT d_moy, SUM(ss_sales_price) AS s
        |FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year = 2018
        |GROUP BY d_moy ORDER BY s DESC LIMIT 3""".stripMargin
    val rw = MvRewriter.rewrite(spark, spark.sql(sql), c2).get
    // compare at cent precision: the two summation orders differ in ulps
    val got = rw.df.collect().map(r => math.round(r.getDouble(1) * 100)).toSeq
    val exp = spark.sql(sql).collect().map(r => math.round(r.getDouble(1) * 100)).toSeq
    assert(got == exp, "descending order and limit must survive the rewrite")
    c2.drop("mv_denorm2")
  }

  test("an equality on a long from 2^53 on is not rewritten, so Spark's exact answer comes back") {
    val c2 = starCatalog()
    val big = 1L << 53
    spark.range(1).select(explode(array(lit(big), lit(big + 1))).as("k")).createOrReplaceTempView("big_t")
    c2.registerSource("big_t")
    c2.createMaterializedView("mv_big", "SELECT k FROM big_t")
    // as doubles, 2^53 and 2^53 + 1 are one value: a compensation filter
    // over the view would keep both rows
    val df = spark.sql(s"SELECT k FROM big_t WHERE k = ${big + 1}")
    val rw = MvRewriter.rewrite(spark, df, c2)
    assert(rw.fold(df)(_.df).collect().map(_.getLong(0)).toSeq == Seq(big + 1))
    assert(rw.isEmpty)
    c2.drop("mv_big")
  }

  test("creating a view again uncaches the contents it replaces") {
    val c2 = starCatalog()
    c2.createMaterializedView("mv_again",
      "SELECT d_year, COUNT(*) AS cnt FROM date_dim GROUP BY d_year")
    val cached = spark.sparkContext.getPersistentRDDs.size
    c2.createMaterializedView("mv_again",
      "SELECT d_year, MAX(d_moy) AS m FROM date_dim GROUP BY d_year")
    assert(spark.sparkContext.getPersistentRDDs.size == cached, "the old contents stay cached")
    c2.drop("mv_again")
  }

  test("stale MV detection: rebuild refreshes contents") {
    val c2 = starCatalog()
    storeSales.limit(1000).createOrReplaceTempView("ss_small")
    c2.registerSource("ss_small")
    c2.createMaterializedView("mv_small",
      "SELECT ss_item_sk, SUM(ss_sales_price) AS s FROM ss_small GROUP BY ss_item_sk")
    val before = spark.table("mv_small").count()
    // source changes underneath
    storeSales.limit(2000).createOrReplaceTempView("ss_small")
    c2.createMaterializedView("mv_small",
      "SELECT ss_item_sk, SUM(ss_sales_price) AS s FROM ss_small GROUP BY ss_item_sk")
    val after = spark.table("mv_small").agg(org.apache.spark.sql.functions.sum("s")).collect()(0).getDouble(0)
    val expected = spark.table("ss_small")
      .agg(org.apache.spark.sql.functions.sum("ss_sales_price")).collect()(0).getDouble(0)
    assert(math.abs(after - expected) < 1e-6)
    assert(before > 0)
    c2.drop("mv_small")
  }
}
