package repro.metastore

import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite

class CatalogSpec extends AnyFunSuite {

  private def desc(name: String) = TableDesc(
    name,
    StructType(Seq(StructField("k", LongType), StructField("v", DoubleType))),
    location = s"/tmp/$name")

  test("create / lookup / drop") {
    val c = new Catalog
    c.createTable(desc("a"))
    assert(c.tableExists("a") && c.table("a").location == "/tmp/a")
    c.dropTable("a")
    assert(!c.tableExists("a"))
    assertThrows[NoSuchElementException](c.table("a"))
  }

  test("duplicate create rejected") {
    val c = new Catalog
    c.createTable(desc("a"))
    assertThrows[IllegalArgumentException](c.createTable(desc("a")))
  }

  test("listTables is sorted") {
    val c = new Catalog
    Seq("zeta", "alpha", "mid").foreach(n => c.createTable(desc(n)))
    assert(c.listTables() == Seq("alpha", "mid", "zeta"))
  }

  test("partitions accumulate") {
    val c = new Catalog
    c.createTable(desc("a"))
    c.addPartitions("a", Seq("1", "2"))
    c.addPartitions("a", Seq("2", "3"))
    assert(c.listPartitions("a") == Set("1", "2", "3"))
  }

  test("resource plans: create, activate, only one active") {
    val c = new Catalog
    val plan = ResourcePlanDef("daytime",
      pools = Seq(PoolDef("bi", 0.8, 5), PoolDef("etl", 0.2, 20)),
      defaultPool = Some("etl"))
    c.createResourcePlan(plan)
    assertThrows[IllegalArgumentException](c.createResourcePlan(plan))
    assert(c.activeResourcePlan.isEmpty)
    c.activateResourcePlan("daytime")
    assert(c.activeResourcePlan.map(_.name).contains("daytime"))
    assertThrows[IllegalArgumentException](c.activateResourcePlan("nighttime"))
  }
}

class ResourcePlanDefSpec extends AnyFunSuite {

  private val plan = ResourcePlanDef(
    "daytime",
    pools = Seq(PoolDef("bi", 0.8, 5), PoolDef("etl", 0.2, 20)),
    mappings = Seq(ApplicationMapping("visualization_app", "bi"), UserMapping("alex", "bi")),
    triggers = Map("bi" -> Seq(TriggerDef("downgrade", "total_runtime", 3000, MoveToPool("etl")))),
    defaultPool = Some("etl"))

  test("paper example plan validates") {
    assert(plan.pool("bi").queryParallelism == 5)
    assert(plan.pool("etl").allocFraction == 0.2)
  }

  test("application mapping wins over default") {
    assert(plan.resolvePool(Some("visualization_app"), None).contains("bi"))
  }

  test("user mapping applies when no application matches") {
    assert(plan.resolvePool(Some("unknown_app"), Some("alex")).contains("bi"))
  }

  test("unmapped queries land in the default pool") {
    assert(plan.resolvePool(None, Some("someone")).contains("etl"))
  }

  test("over-allocated plans are rejected") {
    assertThrows[IllegalArgumentException](
      ResourcePlanDef("bad", Seq(PoolDef("a", 0.8, 1), PoolDef("b", 0.3, 1))))
  }

  test("duplicate pool names are rejected") {
    assertThrows[IllegalArgumentException](
      ResourcePlanDef("bad", Seq(PoolDef("a", 0.5, 1), PoolDef("a", 0.5, 1))))
  }

  test("mapping to unknown pool is rejected") {
    assertThrows[IllegalArgumentException](
      ResourcePlanDef("bad", Seq(PoolDef("a", 1.0, 1)),
        mappings = Seq(UserMapping("u", "nope"))))
  }

  test("unknown default pool is rejected") {
    assertThrows[IllegalArgumentException](
      ResourcePlanDef("bad", Seq(PoolDef("a", 1.0, 1)), defaultPool = Some("nope")))
  }

  test("pool constraints enforced") {
    assertThrows[IllegalArgumentException](PoolDef("p", 0.0, 1))
    assertThrows[IllegalArgumentException](PoolDef("p", 1.5, 1))
    assertThrows[IllegalArgumentException](PoolDef("p", 0.5, 0))
  }
}
