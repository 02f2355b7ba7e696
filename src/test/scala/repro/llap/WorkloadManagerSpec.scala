package repro.llap

import org.scalatest.funsuite.AnyFunSuite

import repro.metastore._

class WorkloadManagerSpec extends AnyFunSuite {

  /** The paper's §5.2 example: bi pool (80%, parallelism 5), etl (20%, 20),
    * a downgrade trigger on bi, an application mapping, default pool etl. */
  private def daytime(biParallelism: Int = 5, etlParallelism: Int = 20) = ResourcePlanDef(
    "daytime",
    pools = Seq(PoolDef("bi", 0.8, biParallelism), PoolDef("etl", 0.2, etlParallelism)),
    mappings = Seq(ApplicationMapping("visualization_app", "bi")),
    triggers = Map("bi" -> Seq(TriggerDef("downgrade", "total_runtime", 3000, MoveToPool("etl")))),
    defaultPool = Some("etl"))

  test("application mapping routes to bi; default routes to etl") {
    val wm = new WorkloadManager(daytime())
    assert(wm.admit("q1", application = Some("visualization_app")) == Admitted("bi"))
    assert(wm.admit("q2") == Admitted("etl"))
  }

  test("pool parallelism is enforced") {
    val wm = new WorkloadManager(daytime(biParallelism = 2, etlParallelism = 1))
    assert(wm.admit("q1", Some("visualization_app")) == Admitted("bi"))
    assert(wm.admit("q2", Some("visualization_app")) == Admitted("bi"))
    assert(wm.admit("q3") == Admitted("etl"))
    // both pools full now
    assert(wm.admit("q4") == Queued)
    assert(wm.isQueued("q4"))
  }

  test("idle resources of another pool are lent out") {
    val wm = new WorkloadManager(daytime(biParallelism = 1, etlParallelism = 5))
    wm.admit("q1", Some("visualization_app"))
    val a = wm.admit("q2", Some("visualization_app"))
    assert(a == Admitted("bi", borrowedFrom = Some("etl")),
      "bi is full but etl has idle capacity to lend")
  }

  test("release admits a waiting query") {
    val wm = new WorkloadManager(daytime(biParallelism = 1, etlParallelism = 1))
    wm.admit("q1", Some("visualization_app"))
    wm.admit("q2")
    assert(wm.admit("q3") == Queued)
    wm.release("q2")
    assert(!wm.isQueued("q3") && wm.poolOf("q3").contains("etl"))
  }

  test("trigger moves a long-running query from bi to etl (paper's rule)") {
    val wm = new WorkloadManager(daytime())
    wm.admit("q1", Some("visualization_app"))
    assert(wm.reportMetric("q1", "total_runtime", 2000) == NoAction)
    assert(wm.reportMetric("q1", "total_runtime", 3500) == Moved("bi", "etl"))
    assert(wm.poolOf("q1").contains("etl"))
  }

  test("kill trigger removes the query") {
    val plan = ResourcePlanDef("p",
      pools = Seq(PoolDef("bi", 1.0, 5)),
      triggers = Map("bi" -> Seq(TriggerDef("kill", "memory", 100, KillQuery))),
      defaultPool = Some("bi"))
    val wm = new WorkloadManager(plan)
    wm.admit("q1")
    assert(wm.reportMetric("q1", "memory", 500) == Killed)
    assert(wm.isKilled("q1") && wm.runningCount == 0)
  }

  test("metrics for unknown queries are ignored") {
    val wm = new WorkloadManager(daytime())
    assert(wm.reportMetric("ghost", "total_runtime", 99999) == NoAction)
  }

  test("admission fails without a resolvable pool") {
    val plan = ResourcePlanDef("p", pools = Seq(PoolDef("only", 1.0, 1)))
    val wm = new WorkloadManager(plan)
    assertThrows[IllegalStateException](wm.admit("q1"))
  }
}
