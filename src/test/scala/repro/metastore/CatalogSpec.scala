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
    assert(!c.tableExists("b"))
    assertThrows[NoSuchElementException](c.table("b"))
  }

  test("duplicate create rejected") {
    val c = new Catalog
    c.createTable(desc("a"))
    assertThrows[IllegalArgumentException](c.createTable(desc("a")))
  }
}
