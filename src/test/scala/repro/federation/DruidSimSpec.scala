package repro.federation.druid

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec

class DruidSimSpec extends SparkSpec {

  /** events: __time 0..9999, d1 in {a,b,c,d}, m1 = time % 100 */
  private lazy val sim = {
    val s = new DruidSim
    val df = spark.range(0, 10000).select(
      col("id").as("__time"),
      element_at(array(lit("a"), lit("b"), lit("c"), lit("d")),
        (col("id") % 4 + 1).cast("int")).as("d1"),
      (col("id") % 100).cast("double").as("m1"))
    s.createDataSource("events", df, segmentKey = Some("__time"), targetSegments = 10)
    s
  }

  test("ingestion partitions into segments along the key") {
    sim.execute(DruidQuery("scan", "events"))
    assert(sim.lastSegmentsScanned == 10 && sim.lastSegmentsPruned == 0)
    assert(sim.schemaOf("events").fieldNames.toSeq == Seq("__time", "d1", "m1"))
  }

  test("scan returns all rows; interval prunes segments") {
    val all = sim.execute(DruidQuery("scan", "events"))
    assert(all.size == 10000)
    val some = sim.execute(DruidQuery("scan", "events",
      filter = Some(Bound("__time", Some(2500.0), Some(3499.0)))))
    assert(some.size == 1000, "the bound must filter rows inside boundary segments")
    // the bound on the segment key spans parts of two 1000-row segments
    assert(sim.lastSegmentsPruned == 8 && sim.lastSegmentsScanned == 2)
  }

  test("groupBy with doubleSum matches Spark") {
    val res = sim.execute(DruidQuery("groupBy", "events",
      dimensions = Seq("d1"),
      aggregations = Seq(DruidAgg("doubleSum", "s", "m1"))))
    assert(res.size == 4)
    val m = res.map(r => r("d1").toString -> r("s").asInstanceOf[Double]).toMap
    // d1 = 'a' rows are ids with id%4==0: m1 sum = sum over those of id%100
    val expect = (0 until 10000).filter(_ % 4 == 0).map(_ % 100).sum.toDouble
    assert(m("a") == expect)
  }

  test("selector filter uses the inverted index") {
    val res = sim.execute(DruidQuery("groupBy", "events",
      dimensions = Seq("d1"),
      aggregations = Seq(DruidAgg("count", "c", "")),
      filter = Some(Selector("d1", "b"))))
    assert(res == Seq(Map("d1" -> "b", "c" -> 2500L)))
  }

  test("bound filter on numeric columns") {
    val res = sim.execute(DruidQuery("timeseries", "events",
      aggregations = Seq(DruidAgg("count", "c", "")),
      filter = Some(Bound("m1", Some(0.0), Some(9.0)))))
    assert(res.head("c") == 1000L)
  }

  test("AND filters intersect; IN filters union values") {
    val res = sim.execute(DruidQuery("timeseries", "events",
      aggregations = Seq(DruidAgg("count", "c", "")),
      filter = Some(AndFilter(Seq(
        InFilter("d1", Seq("a", "b")),
        Bound("__time", Some(0.0), Some(999.0)))))))
    assert(res.head("c") == 500L)
  }

  test("limitSpec orders and truncates (topN shape)") {
    val res = sim.execute(DruidQuery("groupBy", "events",
      dimensions = Seq("d1"),
      aggregations = Seq(DruidAgg("doubleSum", "s", "m1")),
      limitSpec = Some(LimitSpec(2, Seq(("s", true))))))
    assert(res.size == 2)
    assert(res.head("s").asInstanceOf[Double] >= res(1)("s").asInstanceOf[Double])
  }

  test("min/max aggregators") {
    val res = sim.execute(DruidQuery("timeseries", "events",
      aggregations = Seq(DruidAgg("doubleMin", "mn", "m1"), DruidAgg("doubleMax", "mx", "m1"))))
    assert(res.head("mn") == 0.0 && res.head("mx") == 99.0)
  }

  test("toJson renders the Figure 6c shape") {
    val q = DruidQuery("groupBy", "my_druid_source",
      dimensions = Seq("d1"),
      aggregations = Seq(DruidAgg("floatSum", "s", "m1")),
      limitSpec = Some(LimitSpec(10, Seq(("s", true)))))
    val json = q.toJson
    assert(json.contains(""""queryType": "groupBy""""))
    assert(json.contains(""""dataSource": "my_druid_source""""))
    assert(json.contains(""""granularity": "all""""))
    assert(json.contains(""""limit": 10"""))
    assert(json.contains(""""direction": "descending""""))
  }

  test("unknown datasource rejected") {
    assertThrows[NoSuchElementException](sim.execute(DruidQuery("scan", "nope")))
  }
}
