package repro.bench

import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ReusedExchangeExec

import repro.SparkSpec

class BenchRunnersSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  test("NoReuse turns Spark's exchange reuse off") {
    val sql =
      """SELECT a.g, a.c, b.c FROM
        |  (SELECT id % 4 AS g, count(*) AS c FROM t GROUP BY id % 4) a
        |  JOIN (SELECT id % 4 AS g, count(*) AS c FROM t GROUP BY id % 4) b ON a.g = b.g""".stripMargin
    def reused(settings: Seq[(String, String)]): Int = {
      val s = spark.newSession()
      settings.foreach { case (k, v) => s.conf.set(k, v) }
      s.range(0, 1000).createOrReplaceTempView("t")
      val df = s.sql(sql)
      assert(df.collect().length == 4)
      collectWithSubqueries(df.queryExecution.executedPlan) { case r: ReusedExchangeExec => r }.size
    }
    assert(reused(Seq.empty) > 0, "the two identical aggregates share no exchange by default")
    assert(reused(BenchRunners.NoReuse) == 0, "NoReuse left Spark's exchange reuse on")
  }
}
