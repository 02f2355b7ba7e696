package repro.core

import org.apache.spark.sql.functions._

import repro.SparkSpec

class ReoptimizerSpec extends SparkSpec with StarFixture {

  private def reopt = new Reoptimizer(
    broadcastThresholdRows = 1000, broadcastHardLimitRows = 5000)

  private lazy val left = storeSales
  private lazy val smallRight = item // 100 rows
  private lazy val bigRight = spark.range(1, 20001).select(
    col("id").as("i_item_sk"), lit("x").as("i_category")) // 20k rows

  test("accurate small estimate: broadcast succeeds first try") {
    val out = reopt.executeJoin(left, smallRight,
      col("ss_item_sk") === col("i_item_sk"),
      estimatedRightRows = 100, strategy = Reoptimizer.ReoptimizeWithStats)
    assert(out.attempts == Seq(Reoptimizer.AttemptLog("broadcast", failed = false, None)))
  }

  test("accurate large estimate: shuffle chosen upfront, no failure") {
    val out = reopt.executeJoin(left, bigRight,
      col("ss_item_sk") === col("i_item_sk"),
      estimatedRightRows = 20000, strategy = Reoptimizer.ReoptimizeWithStats)
    assert(out.attempts.map(_.algorithm) == Seq("shuffle"))
  }

  test("misestimate triggers failure then reoptimize-with-stats picks shuffle") {
    val out = reopt.executeJoin(left, bigRight,
      col("ss_item_sk") === col("i_item_sk"),
      estimatedRightRows = 50 /* badly wrong */, strategy = Reoptimizer.ReoptimizeWithStats)
    assert(out.attempts.map(a => (a.algorithm, a.failed)) ==
      Seq(("broadcast", true), ("shuffle", false)))
    assert(out.attempts.head.buildRows.contains(20000L),
      "the runtime statistic captured at failure must be the actual cardinality")
  }

  test("overlay strategy forces the configured robust algorithm on retry") {
    val out = reopt.executeJoin(left, bigRight,
      col("ss_item_sk") === col("i_item_sk"),
      estimatedRightRows = 50, strategy = Reoptimizer.Overlay)
    assert(out.attempts.map(_.algorithm) == Seq("broadcast", "shuffle"))
    assert(out.attempts.last.failed == false)
  }

  test("reoptimized result equals a plain join") {
    starCatalog()
    val out = reopt.executeJoin(left, bigRight,
      col("ss_item_sk") === col("i_item_sk"),
      estimatedRightRows = 50, strategy = Reoptimizer.ReoptimizeWithStats)
    val plain = left.join(bigRight, col("ss_item_sk") === col("i_item_sk"))
    assert(out.df.count() == plain.count())
  }

  test("runtime statistics expose per-operator output rows") {
    val df = storeSales.filter(col("ss_quantity") > 5)
      .groupBy("ss_item_sk").agg(count(lit(1)).as("c"))
    df.collect()
    val stats = RuntimeStats.collect(df)
    assert(stats.nonEmpty)
    val aggRows = RuntimeStats.rowsFor(stats, "hashaggregate")
    assert(aggRows > 0, s"no aggregate metrics found in ${stats.keys}")
  }

  test("runtime filter-output statistic matches the actual selectivity") {
    val df = storeSales.filter(col("ss_quantity") > 5) // 5/10 of rows
    // execute THIS query execution (count() would plan a separate one
    // whose metrics df does not see)
    assert(df.collect().length == 10000)
    val stats = RuntimeStats.collect(df)
    val filterRows = RuntimeStats.rowsFor(stats, "filter")
    assert(filterRows == 10000, s"filter metric=$filterRows")
  }
}

class JoinReorderSpec extends SparkSpec with StarFixture {
  import repro.metastore.{Catalog, StatsCollector, TableDesc}
  import org.apache.spark.sql.types._

  private lazy val catalogWithStats: (Catalog, SpjaQuery) = {
    val mv = starCatalog()
    val cat = new Catalog
    Seq("store_sales" -> storeSales, "date_dim" -> dateDim, "item" -> item).foreach {
      case (n, df) =>
        cat.createTable(TableDesc(n, df.schema, s"/tmp/$n"))
        cat.putStats(n, StatsCollector.collect(df))
    }
    val q = Spja.extract(spark.sql(
      """SELECT COUNT(*) AS c FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |AND i_category = 'Sports'""".stripMargin).queryExecution.analyzed,
      mv.sourceNames).get
    (cat, q)
  }

  test("greedy order starts from the smallest filtered relation") {
    val (cat, q) = catalogWithStats
    val plan = JoinReorder.plan(q, cat)
    // item filtered to one category (~20 rows) is far smaller than the
    // 730-row date_dim or the 20k-row fact
    assert(plan.order.head == "item", s"order=${plan.order}")
    assert(plan.order.toSet == q.tables)
  }

  test("estimated sizes are monotone records of the greedy chain") {
    val (cat, q) = catalogWithStats
    val plan = JoinReorder.plan(q, cat)
    assert(plan.estimatedRows.length == plan.order.length)
    assert(plan.estimatedRows.forall(_ >= 1.0))
  }

  test("built join follows the order and produces correct results") {
    val (cat, q) = catalogWithStats
    val plan = JoinReorder.plan(q, cat)
    val df = JoinReorder.build(spark, q, plan.order).get
      .filter(col("i_category") === "Sports")
      .agg(count(lit(1)).as("c"))
    val expected = spark.sql(
      """SELECT COUNT(*) AS c FROM store_sales, date_dim, item
        |WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
        |AND i_category = 'Sports'""".stripMargin)
    assert(df.collect()(0).getLong(0) == expected.collect()(0).getLong(0))
  }

  test("build skips ahead to the first connected table; None when disconnected") {
    val (_, q) = catalogWithStats
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

  test("missing statistics fall back to defaults without failing") {
    val (_, q) = catalogWithStats
    val empty = new Catalog
    val plan = JoinReorder.plan(q, empty)
    assert(plan.order.toSet == q.tables)
  }

  test("cost model: filter selectivity shrinks estimates") {
    val (cat, _) = catalogWithStats
    val s = cat.statsOf("date_dim").get
    val all = CostModel.filteredCardinality(s, Seq.empty)
    val half = CostModel.filteredCardinality(s,
      Seq(RangePred("d_year", 2017.5, false, Double.PositiveInfinity, true)))
    assert(all == 730.0 && half < all * 0.6 && half > all * 0.3)
  }

  test("cost model: join cardinality uses NDV containment") {
    assert(CostModel.joinCardinality(1000, 100, 100, 50) == 1000.0)
    assert(CostModel.joinCardinality(10, 10, 1, 1) == 100.0)
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

  test("disabled features leave the plan untouched") {
    val cat = starCatalog()
    val opt = new HiveOptimizer(spark, Some(cat),
      enableMvRewrite = false, enableSharedWork = false)
    val df = spark.sql("SELECT COUNT(*) AS c FROM store_sales")
    val out = opt.optimize(df)
    assert(out.rewrites.isEmpty && (out.df eq df))
  }

  test("shared-work stage fires on repeated subexpressions") {
    starCatalog()
    val sub = "SELECT ss_item_sk AS k, COUNT(*) AS c FROM store_sales GROUP BY ss_item_sk"
    val df = spark.sql(s"SELECT a.k, a.c + b.c AS t FROM ($sub) a JOIN ($sub) b ON a.k = b.k")
    val out = new HiveOptimizer(spark, None).optimize(df)
    assert(out.rewrites.exists(_.startsWith("shared-work")))
    assertSameResult(out.df, df)
  }
}
