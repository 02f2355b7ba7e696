package repro.federation.druid

import java.time.LocalDate

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

/** Druid query model (§6.2) — the JSON queries Hive/Calcite generates,
  * as case classes with a `toJson` renderer matching Figure 6c's shape. */
sealed trait DruidFilter
final case class Selector(dimension: String, value: String) extends DruidFilter
final case class Bound(dimension: String, lower: Option[Double], upper: Option[Double],
                       lowerStrict: Boolean = false, upperStrict: Boolean = false) extends DruidFilter
final case class InFilter(dimension: String, values: Seq[String]) extends DruidFilter
final case class AndFilter(fields: Seq[DruidFilter]) extends DruidFilter

final case class DruidAgg(aggType: String, name: String, fieldName: String)

final case class LimitSpec(limit: Int, columns: Seq[(String, Boolean)]) // (column, descending)

final case class DruidQuery(
    queryType: String, // "groupBy" | "scan" | "timeseries"
    dataSource: String,
    dimensions: Seq[String] = Seq.empty,
    aggregations: Seq[DruidAgg] = Seq.empty,
    filter: Option[DruidFilter] = None,
    intervals: Option[(Double, Double)] = None, // [lo, hi] on the segment key
    limitSpec: Option[LimitSpec] = None) {

  def toJson: String = {
    def fjson(f: DruidFilter): String = f match {
      case Selector(d, v) => s"""{ "type": "selector", "dimension": "$d", "value": "$v" }"""
      case Bound(d, lo, hi, ls, us) =>
        val parts = Seq(s""""type": "bound"""", s""""dimension": "$d"""") ++
          lo.map(v => s""""lower": "$v", "lowerStrict": $ls""") ++
          hi.map(v => s""""upper": "$v", "upperStrict": $us""")
        s"{ ${parts.mkString(", ")} }"
      case InFilter(d, vs) =>
        s"""{ "type": "in", "dimension": "$d", "values": [${vs.map(v => s""""$v"""").mkString(", ")}] }"""
      case AndFilter(fs) => s"""{ "type": "and", "fields": [${fs.map(fjson).mkString(", ")}] }"""
    }
    val fields = Seq(
      Some(s""""queryType": "$queryType""""),
      Some(s""""dataSource": "$dataSource""""),
      Some(s""""granularity": "all""""),
      if (dimensions.nonEmpty)
        Some(s""""dimensions": [${dimensions.map(d => s""""$d"""").mkString(", ")}]""")
      else None,
      if (aggregations.nonEmpty)
        Some(s""""aggregations": [${aggregations.map(a =>
          s"""{ "type": "${a.aggType}", "name": "${a.name}", "fieldName": "${a.fieldName}" }""")
          .mkString(", ")}]""")
      else None,
      filter.map(f => s""""filter": ${fjson(f)}"""),
      intervals.map { case (lo, hi) => s""""intervals": [ "$lo/$hi" ]""" },
      limitSpec.map { ls =>
        s""""limitSpec": { "limit": ${ls.limit}, "columns": [${ls.columns.map {
          case (c, desc) =>
            s"""{"dimension": "$c", "direction": "${if (desc) "descending" else "ascending"}"}"""
        }.mkString(", ")}] }"""
      },
    ).flatten
    s"{\n  ${fields.mkString(",\n  ")}\n}"
  }
}

/** One time-partitioned columnar segment of a datasource. */
private[druid] final class Segment(
    val keyLo: Double, val keyHi: Double, // segment-key range (inclusive)
    val numRows: Int,
    val columns: Map[String, Array[Any]],
    /** inverted index: dimension -> value -> row ids (string dims only) */
    val index: Map[String, Map[String, Array[Int]]])

/** In-process "Druid" substrate (§6, Figure 6): an OLAP engine holding
  * datasources as time-partitioned columnar segments with per-segment
  * dictionaries/inverted indexes, answering filtered groupBy queries much
  * faster than a general scan-join pipeline. Stands in for Druid v0.12 of
  * the paper's federation experiment.
  */
final class DruidSim {

  private final case class DataSource(schema: StructType, segmentKey: Option[String],
                                      segments: Seq[Segment])
  private val dataSources = mutable.Map[String, DataSource]()
  /** segments touched / pruned by the last query, for tests and benches */
  @volatile var lastSegmentsScanned: Int = 0
  @volatile var lastSegmentsPruned: Int = 0

  /** Ingests a DataFrame as a datasource. When `segmentKey` names a numeric
    * column, rows are range-partitioned into segments by that column (the
    * `__time` analogue); otherwise segments are row-count chunks. */
  def createDataSource(name: String, df: DataFrame, segmentKey: Option[String] = None,
                       targetSegments: Int = 16): Unit = {
    val schema = df.schema
    val rows = df.collect()
    val grouped: Seq[Array[Row]] = segmentKey match {
      case Some(k) =>
        val idx = schema.fieldIndex(k)
        val sorted = rows.sortBy(r => numOf(r.get(idx)))
        chunk(sorted, targetSegments)
      case None => chunk(rows, targetSegments)
    }
    val segs = grouped.filter(_.nonEmpty).map { seg =>
      val cols: Map[String, Array[Any]] = schema.fieldNames.map { f =>
        val i = schema.fieldIndex(f)
        f -> seg.map(_.get(i)).toArray
      }.toMap
      val stringDims = schema.fields.filter(_.dataType == StringType).map(_.name)
      val inverted = stringDims.map { d =>
        val vals = cols(d)
        val m = mutable.Map[String, mutable.ArrayBuffer[Int]]()
        var i = 0
        while (i < vals.length) {
          if (vals(i) != null) m.getOrElseUpdate(vals(i).toString, mutable.ArrayBuffer.empty) += i
          i += 1
        }
        d -> m.map { case (v, ids) => v -> ids.toArray }.toMap
      }.toMap
      val (lo, hi) = segmentKey match {
        case Some(k) =>
          val ks = cols(k).map(numOf)
          (ks.min, ks.max)
        case None => (Double.NegativeInfinity, Double.PositiveInfinity)
      }
      new Segment(lo, hi, seg.length, cols, inverted)
    }
    dataSources(name) = DataSource(schema, segmentKey, segs)
  }

  def schemaOf(name: String): StructType = ds(name).schema
  def segmentCount(name: String): Int = ds(name).segments.size
  def dataSourceNames: Set[String] = dataSources.keySet.toSet

  private def ds(name: String): DataSource =
    dataSources.getOrElse(name, throw new NoSuchElementException(s"no such datasource: $name"))

  /** Executes a query, returning rows of (dimensions ++ aggregations) for
    * groupBy/timeseries or full rows for scan. */
  def execute(q0: DruidQuery): Seq[Map[String, Any]] = {
    val source = ds(q0.dataSource)
    // the interval is both a segment-pruning bound and a row filter for
    // segments it only partially covers
    val q = (q0.intervals, source.segmentKey) match {
      case (Some((lo, hi)), Some(k)) =>
        val bound = Bound(k, Some(lo), Some(hi))
        q0.copy(filter = Some(q0.filter.map(f => AndFilter(Seq(f, bound))).getOrElse(bound)))
      case _ => q0
    }
    // segment pruning by interval on the segment key
    val (live, pruned) = source.segments.partition { s =>
      q.intervals.forall { case (lo, hi) => s.keyHi >= lo && s.keyLo <= hi }
    }
    lastSegmentsScanned = live.size
    lastSegmentsPruned = pruned.size

    q.queryType match {
      case "scan" =>
        live.flatMap(s => selectRows(s, q, source.schema).iterator.map(i =>
          source.schema.fieldNames.map(f => f -> s.columns(f)(i)).toMap))
      case "groupBy" | "timeseries" =>
        val acc = mutable.LinkedHashMap[Seq[Any], Array[Any]]()
        // counts start at 0, the other aggregates at null (no value)
        def empty: Array[Any] = q.aggregations.map(a => if (a.aggType == "count") 0L else null).toArray
        // a timeseries is one global aggregate: one row even when no row matches
        if (q.queryType == "timeseries") acc(Seq.empty) = empty
        live.foreach { s =>
          val rows = selectRows(s, q, source.schema)
          rows.foreach { i =>
            val key = q.dimensions.map(d => s.columns(d)(i))
            val cur = acc.getOrElseUpdate(key, empty)
            var a = 0
            while (a < q.aggregations.size) {
              val agg = q.aggregations(a)
              val v: Any = if (agg.aggType == "count") 1L else s.columns(agg.fieldName)(i)
              cur(a) = combine(agg.aggType, cur(a), v)
              a += 1
            }
          }
        }
        var out = acc.iterator.map { case (k, vs) =>
          (q.dimensions.zip(k) ++ q.aggregations.map(_.name).zip(vs.toSeq)).toMap
        }.toSeq
        q.limitSpec.foreach { ls =>
          val ordering: Ordering[Map[String, Any]] = (x, y) => {
            ls.columns.iterator.map { case (c, desc) =>
              val cmp = java.lang.Double.compare(numOf(x(c)), numOf(y(c)))
              if (desc) -cmp else cmp
            }.find(_ != 0).getOrElse(0)
          }
          out = out.sorted(ordering).take(ls.limit)
        }
        out
      case other => throw new IllegalArgumentException(s"unsupported queryType: $other")
    }
  }

  /** Row selection within a segment: inverted index for selector/IN on
    * string dims, column scan otherwise. Like bounds, IN values on numeric
    * and DATE columns compare as numbers; a DATE value is an ISO date. */
  private def selectRows(s: Segment, q: DruidQuery, schema: StructType): Seq[Int] = {
    def eval(f: DruidFilter): Seq[Int] = f match {
      case Selector(d, v) if s.index.contains(d) =>
        s.index(d).getOrElse(v, Array.empty[Int]).toSeq
      case Selector(d, v) =>
        (0 until s.numRows).filter(i => String.valueOf(s.columns(d)(i)) == v)
      case InFilter(d, vs) if s.index.contains(d) =>
        vs.flatMap(v => s.index(d).getOrElse(v, Array.empty[Int])).distinct.sorted
      case InFilter(d, vs) =>
        val set = vs.map { v =>
          if (schema(d).dataType == DateType) LocalDate.parse(v).toEpochDay.toDouble else v.toDouble
        }.toSet
        (0 until s.numRows).filter(i => set.contains(numOf(s.columns(d)(i))))
      case Bound(d, lo, hi, ls, us) =>
        (0 until s.numRows).filter { i =>
          val v = numOf(s.columns(d)(i))
          lo.forall(l => if (ls) v > l else v >= l) && hi.forall(h => if (us) v < h else v <= h)
        }
      case AndFilter(fs) =>
        fs.map(eval(_).toSet).reduce(_ intersect _).toSeq.sorted
    }
    q.filter match {
      case Some(f) => eval(f)
      case None    => 0 until s.numRows
    }
  }

  private def combine(aggType: String, cur: Any, v: Any): Any = {
    if (v == null) return cur
    val d = numOf(v)
    aggType match {
      case "doubleSum" => if (cur == null) d else cur.asInstanceOf[Double] + d
      case "longSum"   => if (cur == null) d.toLong else cur.asInstanceOf[Long] + d.toLong
      case "count"     => cur.asInstanceOf[Long] + 1L
      case "doubleMin" => if (cur == null) d else math.min(cur.asInstanceOf[Double], d)
      case "doubleMax" => if (cur == null) d else math.max(cur.asInstanceOf[Double], d)
      case other       => throw new IllegalArgumentException(s"unsupported agg: $other")
    }
  }

  private def numOf(v: Any): Double = v match {
    case null      => Double.NaN
    case n: Number => n.doubleValue
    case d: java.sql.Date => d.toLocalDate.toEpochDay.toDouble
    case other     => other.toString.toDouble
  }

  private def chunk(rows: Array[Row], n: Int): Seq[Array[Row]] = {
    if (rows.isEmpty) return Seq.empty
    val size = math.max(1, math.ceil(rows.length.toDouble / n).toInt)
    rows.grouped(size).toSeq
  }
}
