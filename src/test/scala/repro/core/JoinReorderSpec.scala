package repro.core

import org.apache.spark.sql.functions._

import repro.SparkSpec

class JoinReorderSpec extends SparkSpec with StarFixture {

  private lazy val query: SpjaQuery = {
    val mv = starCatalog()
    Spja.extract(spark.sql(
      """SELECT COUNT(*) AS c FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |AND i_category = 'Sports'""".stripMargin).queryExecution.analyzed,
      mv.sourceNames).get
  }

  test("built join follows the order and produces correct results") {
    val df = JoinReorder.build(spark, query, Seq("item", "store_sales", "date_dim")).get
      .filter(col("i_category") === "Sports")
      .agg(count(lit(1)).as("c"))
    val expected = spark.sql(
      """SELECT COUNT(*) AS c FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |AND i_category = 'Sports'""".stripMargin)
    assert(df.collect()(0).getLong(0) == expected.collect()(0).getLong(0))
  }

  test("build skips ahead to the first connected table; None when disconnected") {
    val q = query
    // item joins only store_sales, so it waits until store_sales is joined
    val df = JoinReorder.build(spark, q, Seq("date_dim", "item", "store_sales")).get
    val expected = spark.sql(
      """SELECT COUNT(*) FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk""".stripMargin)
    assert(df.count() == expected.collect()(0).getLong(0))
    val noItemJoin = q.copy(joins = q.joins.filterNot(_._1 == "i_item_sk"))
    assert(noItemJoin.joins.size == 1)
    assert(JoinReorder.build(spark, noItemJoin, Seq("store_sales", "date_dim", "item")).isEmpty)
  }
}

class HiveOptimizerSpec extends SparkSpec with StarFixture {

  test("stages compose: MV rewrite then shared work") {
    val cat = starCatalog()
    cat.createMaterializedView("mv_opt",
      """SELECT d_year, SUM(ss_sales_price) AS s FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk GROUP BY d_year""".stripMargin)
    val opt = new HiveOptimizer(spark, Some(cat))
    val df = spark.sql(
      """SELECT SUM(ss_sales_price) AS s FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk AND d_year = 2018""".stripMargin)
    val out = opt.optimize(df)
    assert(out.rewrites.exists(_.startsWith("mv-rewrite:mv_opt")))
    assertSameResult(out.df, df)
    cat.drop("mv_opt")
  }

  test("shared-work stage fires on repeated subexpressions") {
    starCatalog()
    val sub = "(SELECT ss_item_sk AS k, COUNT(*) AS c FROM store_sales GROUP BY ss_item_sk)"
    val df = spark.sql(
      s"""SELECT a.c AS low, b.c AS high FROM (SELECT SUM(c) AS c FROM $sub WHERE k <= 50) a,
         |(SELECT SUM(c) AS c FROM $sub WHERE k > 50) b""".stripMargin)
    val out = new HiveOptimizer(spark, None).optimize(df)
    assert(out.rewrites == Seq("shared-work:1"))
    assertSameResult(out.df, df)
  }
}
