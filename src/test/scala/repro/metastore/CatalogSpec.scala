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
}
