package repro.ssb

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.{MvCatalog, MvRewriter}

class SsbLiteSpec extends SparkSpec {

  private val sf = 0.01

  test("generator produces the five SSB tables") {
    val t = SsbLite.all(spark, sf)
    assert(t.keySet == Set("lineorder", "date", "customer", "supplier", "part"))
    assert(t("lineorder").count() == 6000)
    assert(t("date").count() == 2556)
  }

  test("referential integrity for all four FK joins") {
    SsbLite.registerViews(spark, sf)
    def orphans(fk: String, pk: String, dim: String): Long =
      spark.sql(s"SELECT COUNT(*) AS c FROM lineorder LEFT ANTI JOIN $dim ON $fk = $pk")
        .collect()(0).getLong(0)
    assert(orphans("lo_orderdate", "d_datekey", "date") == 0)
    assert(orphans("lo_custkey", "c_custkey", "customer") == 0)
    assert(orphans("lo_suppkey", "s_suppkey", "supplier") == 0)
    assert(orphans("lo_partkey", "p_partkey", "part") == 0)
  }

  test("all 13 SSB queries run on Spark") {
    SsbLite.registerViews(spark, sf)
    SsbQueries.all.foreach { q =>
      assert(spark.sql(q.sql).collect().length >= 0, s"${q.id} failed")
    }
  }

  test("Q1.1 matches DuckDB") {
    SsbLite.registerViews(spark, sf)
    Oracle.assertEquivalent(
      spark.sql(SsbQueries.all.find(_.id == "Q1.1").get.sql),
      """SELECT SUM(lo_revenue::DOUBLE) AS revenue
        |FROM lineorder, date
        |WHERE lo_orderdate = d_datekey AND d_year::INT = 1993
        |AND lo_discount::INT >= 1 AND lo_discount::INT <= 3 AND lo_quantity::INT < 25
        |""".stripMargin,
      "lineorder" -> SsbLite.lineorder(spark, sf),
      "date" -> SsbLite.date(spark))
  }

  test("Q2.1 matches DuckDB") {
    SsbLite.registerViews(spark, sf)
    Oracle.assertEquivalent(
      spark.sql(SsbQueries.all.find(_.id == "Q2.1").get.sql),
      """SELECT d_year::INT AS d_year, p_brand1, SUM(lo_revenue::DOUBLE) AS revenue
        |FROM lineorder, date, part, supplier
        |WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
        |AND lo_suppkey = s_suppkey
        |AND p_category = 'MFGR#12' AND s_region = 'AMERICA'
        |GROUP BY d_year::INT, p_brand1 ORDER BY d_year::INT, p_brand1""".stripMargin,
      "lineorder" -> SsbLite.lineorder(spark, sf),
      "date" -> SsbLite.date(spark),
      "part" -> SsbLite.part(spark, sf),
      "supplier" -> SsbLite.supplier(spark, sf))
  }

  /** The §7.3 precondition: every SSB query must be answerable from the
    * denormalized MV via constraint-based rewriting. */
  test("all 13 queries rewrite onto the denormalized materialized view") {
    SsbLite.registerViews(spark, sf)
    val cat = new MvCatalog(spark)
    cat.registerSource("lineorder")
    Seq("date", "customer", "supplier", "part").foreach(cat.registerDimension)
    cat.createMaterializedView("ssb_flat", SsbLite.DenormalizedMvSql)
    try {
      SsbQueries.all.foreach { q =>
        val df = spark.sql(q.sql)
        val rw = MvRewriter.rewrite(spark, df, cat)
        assert(rw.isDefined, s"${q.id} did not rewrite onto the denormalized MV")
        assert(rw.get.view == "ssb_flat")
        // result equality, order-insensitively at cent precision
        def canon(d: org.apache.spark.sql.DataFrame): Seq[String] =
          d.collect().toSeq.map(_.toSeq.map {
            case x: Double => (math.rint(x * 100) / 100).toString
            case x         => String.valueOf(x)
          }.mkString("|")).sorted
        assert(canon(rw.get.df) == canon(df), s"${q.id} rewrite changed results")
      }
    } finally cat.drop("ssb_flat")
  }
}
