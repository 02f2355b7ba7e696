package repro.core

import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ReusedExchangeExec
import org.apache.spark.sql.internal.SQLConf

import repro.{Oracle, SparkSpec}

class SharedWorkSpec extends SparkSpec with StarFixture with AdaptiveSparkPlanHelper {

  /** Runs `sql` through the optimizer and asserts that Spark's exchange
    * reuse, not a rewrite, shares its repeated subtree, with the answer it
    * gives with reuse off. AQE wraps each reused exchange in a query stage,
    * so the walk looks inside `QueryStageExec.plan`. */
  private def assertSparkReuses(sql: String): Unit = {
    val out = new HiveOptimizer(spark, None).optimize(spark.sql(sql))
    assert(out.rewrites.isEmpty)
    val reuse = SQLConf.EXCHANGE_REUSE_ENABLED.key
    spark.conf.set(reuse, "false")
    val unshared = try spark.createDataFrame(spark.sql(sql).collectAsList(), out.df.schema)
      finally spark.conf.unset(reuse)
    assertSameResult(out.df, unshared)
    out.df.collect() // AQE settles the final plan as it runs
    val reused = collect(out.df.queryExecution.executedPlan) { case r: ReusedExchangeExec => r }
    assert(reused.nonEmpty, out.df.queryExecution.executedPlan)
  }

  test("a self-unioned aggregate shares its common subexpression") {
    starCatalog()
    // the same filtered aggregate computed twice
    val sub =
      """SELECT ss_item_sk, SUM(ss_sales_price) AS s FROM store_sales
        |WHERE ss_quantity > 3 GROUP BY ss_item_sk""".stripMargin
    assertSparkReuses(
      s"SELECT a.ss_item_sk, a.s + b.s AS s2 FROM ($sub) a JOIN ($sub) b ON a.ss_item_sk = b.ss_item_sk")
  }

  test("shared result is correct against DuckDB") {
    starCatalog()
    val sub = "SELECT ss_item_sk, COUNT(*) AS c FROM store_sales GROUP BY ss_item_sk"
    val df = spark.sql(
      s"SELECT a.ss_item_sk AS k, a.c + b.c AS c2 FROM ($sub) a JOIN ($sub) b ON a.ss_item_sk = b.ss_item_sk")
    val res = SharedWork.optimize(spark, df)
    Oracle.assertEquivalent(
      res.df,
      """WITH sub AS (SELECT ss_item_sk, COUNT(*) AS c FROM store_sales GROUP BY ss_item_sk)
        |SELECT a.ss_item_sk AS k, a.c + b.c AS c2 FROM sub a JOIN sub b ON a.ss_item_sk = b.ss_item_sk
        |""".stripMargin,
      "store_sales" -> storeSales)
  }

  test("no sharing when the plan has no repeated subexpressions") {
    starCatalog()
    val df = spark.sql(
      """SELECT d_year, COUNT(*) AS c FROM store_sales, date_dim
        |WHERE ss_sold_date_sk = d_date_sk GROUP BY d_year""".stripMargin)
    val res = SharedWork.optimize(spark, df)
    assert(res.sharedSubplans == 0)
    assertSameResult(res.df, df)
  }

  test("nearly-equal subplans (different constants) are not merged") {
    starCatalog()
    val a = "SELECT ss_item_sk, SUM(ss_sales_price) AS s FROM store_sales WHERE ss_quantity > 3 GROUP BY ss_item_sk"
    val b = "SELECT ss_item_sk, SUM(ss_sales_price) AS s FROM store_sales WHERE ss_quantity > 7 GROUP BY ss_item_sk"
    val df = spark.sql(s"SELECT x.ss_item_sk, x.s + y.s AS t FROM ($a) x JOIN ($b) y ON x.ss_item_sk = y.ss_item_sk")
    val res = SharedWork.optimize(spark, df)
    assert(res.sharedSubplans == 0)
    assertSameResult(res.df, df)
  }

  test("three occurrences still produce one shared subplan") {
    starCatalog()
    val sub = "SELECT ss_item_sk AS k, COUNT(*) AS c FROM store_sales GROUP BY ss_item_sk"
    assertSparkReuses(
      s"""SELECT a.k, a.c + b.c + c.c AS t FROM ($sub) a
         |JOIN ($sub) b ON a.k = b.k JOIN ($sub) c ON a.k = c.k""".stripMargin)
  }

  test("union-all of the same subquery is shared and correct") {
    starCatalog()
    val sub = "SELECT d_year, COUNT(*) AS c FROM date_dim GROUP BY d_year"
    assertSparkReuses(s"SELECT d_year, c FROM ($sub) UNION ALL SELECT d_year, c FROM ($sub)")
  }

  test("filtered aggregates over one subplan merge into one aggregate; other shapes do not") {
    starCatalog()
    def inner(maxItem: Int) =
      s"(SELECT ss_quantity AS q, COUNT(*) AS cnt FROM store_sales WHERE ss_item_sk <= $maxItem GROUP BY ss_quantity)"
    def bucket(filter: String, agg: String = "SUM(cnt)", maxItem: Int = 50) =
      s"(SELECT $agg AS c FROM ${inner(maxItem)} WHERE $filter)"
    val (low, high) = ("q BETWEEN 1 AND 4", "q BETWEEN 5 AND 10")
    val subquery = "q <= (SELECT MAX(ss_quantity) - 5 FROM store_sales)"
    // (case, query, merged groups)
    val cases = Seq(
      ("q88's shape", s"SELECT a.c AS c1, b.c AS c2, x.c AS c3 FROM ${bucket(low)} a, ${bucket(high)} b, " +
        s"${bucket("q = 7")} x", 1),
      ("children that differ", s"SELECT a.c AS c1, b.c AS c2 FROM ${bucket(low)} a, ${bucket(high, maxItem = 60)} b", 0),
      ("a DISTINCT aggregate", s"SELECT a.c AS c1, b.c AS c2 FROM ${bucket(low, "COUNT(DISTINCT cnt)")} a, " +
        s"${bucket(high, "COUNT(DISTINCT cnt)")} b", 0),
      ("a join with a condition", s"SELECT a.c AS c1, b.c AS c2 FROM ${bucket(low)} a JOIN ${bucket(high)} b ON a.c < b.c", 0),
      ("a filter that holds a subquery", s"SELECT a.c AS c1, b.c AS c2 FROM ${bucket(subquery)} a, " +
        s"${bucket(s"NOT $subquery")} b", 0),
    )
    // DuckDB reads every column as VARCHAR; the CTE types the two used here
    val typed = "WITH store_sales AS (SELECT ss_item_sk::BIGINT AS ss_item_sk, " +
      "ss_quantity::BIGINT AS ss_quantity FROM ss_raw) "
    for ((name, sql, merged) <- cases) withClue(s"$name: ") {
      val res = SharedWork.optimize(spark, spark.sql(sql))
      assert(res.sharedSubplans == merged)
      if (merged > 0) assert(res.df.queryExecution.optimizedPlan.collectLeaves().size == 1,
        res.df.queryExecution.optimizedPlan)
      Oracle.assertEquivalent(res.df, typed + sql, "ss_raw" -> storeSales.select("ss_item_sk", "ss_quantity"))
    }
  }
}
