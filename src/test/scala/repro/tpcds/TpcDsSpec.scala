package repro.tpcds

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.{HiveOptimizer, SharedWork}

class TpcDsLiteSpec extends SparkSpec {

  private val sf = 0.01

  private def sqlOf(id: String): String = TpcDsQueries.all.find(_.id == id).get.sql

  test("generator produces all six tables with sane sizes") {
    val t = TpcDsLite.all(spark, sf)
    assert(t.keySet == Set("store_sales", "store_returns", "date_dim", "item", "customer", "store"))
    assert(t("store_sales").count() == 6000)
    assert(t("date_dim").count() == 1461)
    assert(t("store").count() == 10)
  }

  test("referential integrity: every fact key has a dimension row") {
    TpcDsLite.registerViews(spark, sf)
    def orphans(fk: String, fact: String, pk: String, dim: String): Long =
      spark.sql(s"SELECT COUNT(*) AS c FROM $fact LEFT ANTI JOIN $dim ON $fk = $pk")
        .collect()(0).getLong(0)
    assert(orphans("ss_sold_date_sk", "store_sales", "d_date_sk", "date_dim") == 0)
    assert(orphans("ss_item_sk", "store_sales", "i_item_sk", "item") == 0)
    assert(orphans("ss_customer_sk", "store_sales", "c_customer_sk", "customer") == 0)
    assert(orphans("ss_store_sk", "store_sales", "s_store_sk", "store") == 0)
  }

  test("store_returns keys exist in store_sales (q25-style joins hit)") {
    TpcDsLite.registerViews(spark, sf)
    val joined = spark.sql(
      """SELECT COUNT(*) AS c FROM store_returns JOIN store_sales
        |ON sr_item_sk = ss_item_sk AND sr_ticket_number = ss_ticket_number""".stripMargin)
    assert(joined.collect()(0).getLong(0) > 0)
  }

  test("generation is deterministic") {
    val a = TpcDsLite.storeSales(spark, sf).agg(sum("ss_sales_price")).collect()(0).getDouble(0)
    val b = TpcDsLite.storeSales(spark, sf).agg(sum("ss_sales_price")).collect()(0).getDouble(0)
    assert(a == b)
  }

  test("all 20 queries parse and run on Spark") {
    TpcDsLite.registerViews(spark, sf)
    TpcDsQueries.all.foreach { q =>
      val n = spark.sql(q.sql).collect().length
      assert(n >= 0, s"query ${q.id} failed")
    }
  }

  test("the v1.2-supported subset excludes the 4 modern-SQL queries") {
    assert(TpcDsQueries.all.size == 20)
    assert(TpcDsQueries.v12Supported.size == 16)
    assert(TpcDsQueries.all.count(_.sharedWorkQuery) == 1)
  }

  test("q03 matches DuckDB") {
    TpcDsLite.registerViews(spark, sf)
    Oracle.assertEquivalent(
      spark.sql(sqlOf("q03")),
      """SELECT d_year::INT AS d_year, i_brand, SUM(ss_sales_price::DOUBLE) AS sum_agg
        |FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |AND i_category = 'Electronics' AND d_moy::INT = 11
        |GROUP BY d_year::INT, i_brand ORDER BY d_year::INT, sum_agg DESC LIMIT 100""".stripMargin,
      "store_sales" -> TpcDsLite.storeSales(spark, sf),
      "date_dim" -> TpcDsLite.dateDim(spark),
      "item" -> TpcDsLite.item(spark, sf))
  }

  test("q96 (count) matches DuckDB") {
    TpcDsLite.registerViews(spark, sf)
    Oracle.assertEquivalent(
      spark.sql(sqlOf("q96")),
      """SELECT COUNT(*) AS cnt FROM store_sales, store, date_dim
        |WHERE ss_store_sk = s_store_sk AND ss_sold_date_sk = d_date_sk
        |AND s_state = 'TX' AND d_moy::INT = 6""".stripMargin,
      "store_sales" -> TpcDsLite.storeSales(spark, sf),
      "store" -> TpcDsLite.store(spark),
      "date_dim" -> TpcDsLite.dateDim(spark))
  }

  test("q88-like query merges its 8 bucket aggregates and matches DuckDB") {
    TpcDsLite.registerViews(spark, sf)
    val res = SharedWork.optimize(spark, spark.sql(sqlOf("q88")))
    assert(res.sharedSubplans == 1, "the 8 buckets filter one store_sales-store aggregate")
    // DuckDB reads every column as VARCHAR; the CTEs type the ones q88 uses
    Oracle.assertEquivalent(
      res.df,
      """WITH store_sales AS (SELECT ss_store_sk::INT AS ss_store_sk, ss_quantity::INT AS ss_quantity
        |  FROM ss_raw),
        |store AS (SELECT s_store_sk::INT AS s_store_sk, s_state FROM store_raw)
        |""".stripMargin + sqlOf("q88"),
      "ss_raw" -> TpcDsLite.storeSales(spark, sf).select("ss_store_sk", "ss_quantity"),
      "store_raw" -> TpcDsLite.store(spark))
  }

  test("optimize leaves Spark's cache empty") {
    TpcDsLite.registerViews(spark, sf)
    spark.catalog.clearCache()
    new HiveOptimizer(spark, None).optimize(spark.sql(sqlOf("q88"))).df.collect()
    assert(spark.sharedState.cacheManager.isEmpty)
  }

  test("q92c correlated scalar subquery returns plausible values") {
    TpcDsLite.registerViews(spark, sf)
    val v = spark.sql(sqlOf("q92c")).collect()(0).getDouble(0)
    assert(v > 0, "excess-price sum should be positive")
  }
}
