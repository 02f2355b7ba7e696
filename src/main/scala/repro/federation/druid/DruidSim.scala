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
                       lowerStrict: Boolean = false, upperStrict: Boolean = false) extends DruidFilter {
  /** True when some value in [mn, mx] lies within the bound. */
  def meets(mn: Double, mx: Double): Boolean =
    lower.forall(l => if (lowerStrict) mx > l else mx >= l) &&
      upper.forall(h => if (upperStrict) mn < h else mn <= h)
}
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
    limitSpec: Option[LimitSpec] = None) {

  def toJson: String = {
    import DruidQuery.str
    def fjson(f: DruidFilter): String = f match {
      case Selector(d, v) => s"""{ "type": "selector", "dimension": ${str(d)}, "value": ${str(v)} }"""
      case Bound(d, lo, hi, ls, us) =>
        val parts = Seq(s""""type": "bound"""", s""""dimension": ${str(d)}""") ++
          lo.map(v => s""""lower": ${str(v.toString)}, "lowerStrict": $ls""") ++
          hi.map(v => s""""upper": ${str(v.toString)}, "upperStrict": $us""")
        s"{ ${parts.mkString(", ")} }"
      case InFilter(d, vs) =>
        s"""{ "type": "in", "dimension": ${str(d)}, "values": [${vs.map(str).mkString(", ")}] }"""
      case AndFilter(fs) => s"""{ "type": "and", "fields": [${fs.map(fjson).mkString(", ")}] }"""
    }
    val fields = Seq(
      Some(s""""queryType": ${str(queryType)}"""),
      Some(s""""dataSource": ${str(dataSource)}"""),
      Some(s""""granularity": "all""""),
      if (dimensions.nonEmpty)
        Some(s""""dimensions": [${dimensions.map(str).mkString(", ")}]""")
      else None,
      if (aggregations.nonEmpty)
        Some(s""""aggregations": [${aggregations.map(a =>
          s"""{ "type": ${str(a.aggType)}, "name": ${str(a.name)}, "fieldName": ${str(a.fieldName)} }""")
          .mkString(", ")}]""")
      else None,
      filter.map(f => s""""filter": ${fjson(f)}"""),
      limitSpec.map { ls =>
        s""""limitSpec": { "limit": ${ls.limit}, "columns": [${ls.columns.map {
          case (c, desc) =>
            s"""{"dimension": ${str(c)}, "direction": "${if (desc) "descending" else "ascending"}"}"""
        }.mkString(", ")}] }"""
      },
    ).flatten
    s"{\n  ${fields.mkString(",\n  ")}\n}"
  }
}

object DruidQuery {
  /** `v` as a JSON string literal: quoted, with `"`, the backslash and
    * control characters escaped. Every string `toJson` renders goes through here. */
  private def str(v: String): String = {
    val b = new StringBuilder("\"")
    v.foreach {
      case '"'           => b ++= "\\\""
      case '\\'          => b ++= "\\\\"
      case c if c < ' '  => b ++= f"\\u${c.toInt}%04x"
      case c             => b += c
    }
    (b += '"').result()
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

  private def ds(name: String): DataSource =
    dataSources.getOrElse(name, throw new NoSuchElementException(s"no such datasource: $name"))

  /** Executes a query, returning rows of (dimensions ++ aggregations) for
    * groupBy/timeseries or full rows for scan. A segment is read only when
    * its key range meets every `Bound` on the segment key that the filter
    * holds, alone or inside its top-level `and`: Druid's pruning by the
    * `__time` interval. The bounds still filter the rows of the segments read. */
  def execute(q: DruidQuery): Seq[Map[String, Any]] = {
    val source = ds(q.dataSource)
    val keyBounds = q.filter.toSeq.flatMap {
      case AndFilter(fs) => fs
      case f             => Seq(f)
    }.collect { case b: Bound if source.segmentKey.contains(b.dimension) => b }
    val (live, pruned) = source.segments.partition(s => keyBounds.forall(_.meets(s.keyLo, s.keyHi)))
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
      case b: Bound =>
        (0 until s.numRows).filter { i =>
          val v = numOf(s.columns(b.dimension)(i))
          b.meets(v, v)
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
