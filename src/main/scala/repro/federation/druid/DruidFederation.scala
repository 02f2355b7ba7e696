package repro.federation.druid

import scala.collection.concurrent.TrieMap

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.classic.Strategy
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, AttributeReference, GenericInternalRow}
import org.apache.spark.sql.catalyst.plans.logical.{LeafNode, LogicalPlan}
import org.apache.spark.sql.execution.{LeafExecNode, SparkPlan}
import org.apache.spark.sql.repro.PlanUtils
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

import repro.core.{AggSpec, Dom, NumDom, Pred, Spja, StrDom}

/** Logical leaf carrying a Druid query attached to the scan — the
  * Calcite-style result of pushing a sequence of operators into Druid
  * (Figure 6b -> 6c). Planned by [[DruidStrategy]]. */
final case class DruidQueryNode(
    output: Seq[Attribute],
    query: DruidQuery,
    @transient sim: DruidSim) extends LeafNode {
  override def simpleString(maxFields: Int): String =
    s"DruidQuery ${query.queryType} on ${query.dataSource}"
}

/** Physical operator executing the attached Druid query at runtime — what
  * the input format of Hive's Druid storage handler does: send the JSON
  * query to the external system and read back the results. */
final case class DruidQueryExec(
    output: Seq[Attribute],
    query: DruidQuery,
    @transient sim: DruidSim) extends LeafExecNode {

  override protected def doExecute(): RDD[InternalRow] = {
    val results = sim.execute(query) // "send the query to the external system"
    val names = output.map(_.name)
    val types = output.map(_.dataType)
    val rows = results.map { m =>
      val arr = new Array[Any](names.length)
      var i = 0
      while (i < names.length) {
        val v = m.getOrElse(names(i), null)
        arr(i) = (types(i), v) match {
          case (_, null)            => null
          case (StringType, x)      => UTF8String.fromString(x.toString)
          case (LongType, x: Number)    => x.longValue
          case (IntegerType, x: Number) => x.intValue
          case (DoubleType, x: Number)  => x.doubleValue
          case (DateType, x: java.sql.Date) => x.toLocalDate.toEpochDay.toInt
          case (_, x)               => x
        }
        i += 1
      }
      new GenericInternalRow(arr): InternalRow
    }
    val projTypes = output.map(_.dataType).toArray
    sparkContext.parallelize(rows, math.max(1, math.min(4, rows.size))).mapPartitions { it =>
      val proj = org.apache.spark.sql.catalyst.expressions.UnsafeProjection.create(projTypes)
      it.map(r => proj(r).copy(): InternalRow)
    }
  }
}

/** Strategy planning [[DruidQueryNode]] — registered through
  * `spark.experimental.extraStrategies`. */
object DruidStrategy extends Strategy {
  override def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case DruidQueryNode(out, q, sim) => DruidQueryExec(out, q, sim) :: Nil
    case _                           => Nil
  }
}

/** Hive-side federation to the Druid substrate (§6.2).
  *
  * `registerExternalTable` is the analogue of Hive's `CREATE EXTERNAL TABLE
  * ... STORED BY` a Druid storage handler: column names/types are inferred
  * from Druid metadata and a scan-backed temp view is created. `pushdown`
  * rewrites a SPJA query over such a table into a single [[DruidQueryNode]]
  * carrying the generated JSON query.
  */
final class DruidFederation(spark: SparkSession, val sim: DruidSim) {

  private val tables = TrieMap[String, String]() // view name -> datasource

  if (!spark.experimental.extraStrategies.contains(DruidStrategy))
    spark.experimental.extraStrategies = spark.experimental.extraStrategies :+ DruidStrategy

  /** Maps a Hive external table onto an existing Druid datasource; schema
    * is inferred from the datasource (no column list needed). */
  def registerExternalTable(name: String, dataSource: String): Unit = {
    val schema = sim.schemaOf(dataSource)
    val scan = DruidQueryNode(toAttributes(schema), DruidQuery("scan", dataSource), sim)
    PlanUtils.ofRows(spark, scan).createOrReplaceTempView(name)
    tables.put(name, dataSource): Unit
  }

  def externalTables: Set[String] = tables.keySet.toSet

  final case class Pushed(df: DataFrame, query: DruidQuery)

  /** Rewrites a SPJA plan over one external Druid table into a native
    * Druid query; Sort/Limit over the aggregate become the limitSpec. */
  def pushdown(df: DataFrame): Option[Pushed] = {
    val peeled = Spja.peel(df.queryExecution.analyzed)
    val q = Spja.extract(peeled.core, tables.keySet.toSet).getOrElse(return None)
    if (q.tables.size != 1 || q.joins.nonEmpty) return None
    val dataSource = tables(q.tables.head)
    val schema = sim.schemaOf(dataSource)

    val filter = predsToFilter(q.preds, schema).getOrElse(return None)

    val (query, attrs) =
      if (!q.isAggregate) {
        if (peeled.limit.isDefined) return None // scan with limit: not pushed
        (DruidQuery("scan", dataSource, filter = filter), toAttributes(schema))
      } else {
        val dims = q.groupBy.get.map(_.column).distinct
        val aggs = q.aggs.map { a => toDruidAgg(a, schema).getOrElse(return None) }
        val qt = if (dims.isEmpty) "timeseries" else "groupBy"
        (DruidQuery(qt, dataSource, dimensions = dims, aggregations = aggs,
          filter = filter, limitSpec = peeled.limit.map(LimitSpec(_, peeled.sort))),
          dims.map(d => attrFor(schema, d)) ++
            q.aggs.map(a => AttributeReference(a.outName, aggDataType(a, schema))()))
      }
    val out = PlanUtils.ofRows(spark, DruidQueryNode(attrs, query, sim))
      .select(q.outColumns((cr, _) => cr.column): _*)
    // a limitSpec already ordered and limited inside Druid; re-applying the
    // ordering makes the Spark-side row order match the SQL
    Some(Pushed(peeled.reapply(out), query))
  }

  // ------------------------------------------------------------- helpers

  private def toAttributes(schema: StructType): Seq[Attribute] =
    schema.fields.toSeq.map(f => AttributeReference(f.name, f.dataType, f.nullable)())

  private def attrFor(schema: StructType, name: String): Attribute =
    AttributeReference(name, schema(name).dataType, nullable = true)()

  private def aggDataType(a: AggSpec, schema: StructType): DataType = a.func match {
    case "count" | "count_star" => LongType
    case _ =>
      val integral = a.argCols.forall(c =>
        schema(c).dataType == LongType || schema(c).dataType == IntegerType)
      if (integral && a.func == "sum") LongType else DoubleType
  }

  private def toDruidAgg(a: AggSpec, schema: StructType): Option[DruidAgg] = {
    a.func match {
      case "count_star" => Some(DruidAgg("count", a.outName, ""))
      case f =>
        // Druid aggregates reference a plain field, not an expression
        val field = a.arg.getOrElse(return None)
        if (!schema.fieldNames.contains(field)) return None
        val integralSum = aggDataType(a, schema) == LongType
        f match {
          case "sum"   => Some(DruidAgg(if (integralSum) "longSum" else "doubleSum", a.outName, field))
          case "count" => Some(DruidAgg("count", a.outName, field))
          case "min"   => Some(DruidAgg("doubleMin", a.outName, field))
          case "max"   => Some(DruidAgg("doubleMax", a.outName, field))
          case _       => None
        }
    }
  }

  private def predsToFilter(preds: Seq[Pred], schema: StructType): Option[Option[DruidFilter]] = {
    if (preds.isEmpty) return Some(None)
    val doms = Dom.ofPreds(preds).getOrElse(return None)
    val fs = doms.toSeq.sortBy(_._1).map {
      case (c, n: NumDom) =>
        n.effectiveSet match {
          case Some(vals) =>
            InFilter(c, vals.toSeq.sorted.map(Spja.literalText(_, schema(c).dataType)))
          case None => Bound(c,
            Option(n.lo).filter(_ > Double.NegativeInfinity),
            Option(n.hi).filter(_ < Double.PositiveInfinity),
            lowerStrict = !n.loIncl, upperStrict = !n.hiIncl)
        }
      case (c, StrDom(vals)) =>
        if (vals.size == 1) Selector(c, vals.head) else InFilter(c, vals.toSeq.sorted)
    }
    Some(Some(if (fs.size == 1) fs.head else AndFilter(fs)))
  }
}
