package repro.core

import repro.SparkSpec

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
