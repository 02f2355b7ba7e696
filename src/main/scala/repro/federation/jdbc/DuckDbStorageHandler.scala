package repro.federation.jdbc

import java.sql.{Connection, DriverManager}

import scala.collection.concurrent.TrieMap
import scala.util.Using

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

import repro.core.{Dom, NumDom, Spja, SpjaQuery, StrDom}
import repro.federation.{HookEvent, StorageHandler, TableDropped}
import repro.metastore.TableDesc

/** Federation to a JDBC engine (§6.2): Hive can push operator sequences to
  * "multiple engines with JDBC support using Calcite", which generates SQL
  * in the engine's dialect. Here the engine is an in-process DuckDB: the
  * SPJA plan is rendered to DuckDB SQL, executed over JDBC, and the result
  * read back as a DataFrame.
  */
final class DuckDbStorageHandler(spark: SparkSession) extends StorageHandler {

  Class.forName("org.duckdb.DuckDBDriver")
  private val conn: Connection = DriverManager.getConnection("jdbc:duckdb:")
  private val tables = TrieMap[String, StructType]()

  override def name: String = "jdbc-duckdb"

  /** Ships a DataFrame into DuckDB as a table (the output format). */
  override def outputFormat(df: DataFrame, table: TableDesc): Unit = {
    def sqlType(dt: DataType): String = dt match {
      case LongType    => "BIGINT"
      case IntegerType => "INTEGER"
      case DoubleType  => "DOUBLE"
      case StringType  => "VARCHAR"
      case DateType    => "DATE"
      case other       => throw new IllegalArgumentException(s"unsupported: $other")
    }
    val cols = df.schema.fields.map(f => s"${f.name} ${sqlType(f.dataType)}").mkString(", ")
    Using.resource(conn.createStatement())(_.execute(s"CREATE OR REPLACE TABLE ${table.name} ($cols)"))
    Using.resource(conn.prepareStatement(
        s"INSERT INTO ${table.name} VALUES (${df.schema.fields.map(_ => "?").mkString(",")})")) { ps =>
      df.collect().foreach { r =>
        df.schema.fields.indices.foreach(i => ps.setObject(i + 1, r.get(i)))
        ps.addBatch()
      }
      ps.executeBatch()
    }
    tables.put(table.name, df.schema): Unit
  }

  /** Reads a table (or the result of a pushed SQL query) back from DuckDB. */
  override def inputFormat(spark: SparkSession, table: TableDesc,
                           pushedQuery: Option[String]): DataFrame = {
    val sql = pushedQuery.getOrElse(s"SELECT * FROM ${table.name}")
    executeSql(sql)
  }

  override def metastoreHook(event: HookEvent): Unit = event match {
    case TableDropped(n) =>
      Using.resource(conn.createStatement())(_.execute(s"DROP TABLE IF EXISTS $n"))
      tables.remove(n): Unit
  }

  def registeredTables: Set[String] = tables.keySet.toSet

  /** Rewrites a SPJA plan over registered DuckDB tables into a single SQL
    * statement pushed to DuckDB; returns the result frame + the SQL. */
  def pushdown(df: DataFrame): Option[(DataFrame, String)] = {
    val q = Spja.extract(df.queryExecution.analyzed, tables.keySet.toSet).getOrElse(return None)
    val sql = generateSql(q).getOrElse(return None)
    Some((executeSql(sql), sql))
  }

  /** SQL generation from the SPJA form (the Calcite dialect writer). */
  private[jdbc] def generateSql(q: SpjaQuery): Option[String] = {
    val types = q.tables.flatMap(t => tables(t).fields.map(f => f.name -> f.dataType)).toMap
    val from = q.tables.toSeq.sorted.mkString(", ")
    val joinConds = q.joins.toSeq.sorted.map { case (a, b) => s"$a = $b" }
    val doms = Dom.ofPreds(q.preds).getOrElse(return None)
    val preds = doms.toSeq.sortBy(_._1).map { case (c, d) => domSql(c, d, types(c)) }
    val where = joinConds ++ preds
    val whereSql = if (where.isEmpty) "" else s" WHERE ${where.mkString(" AND ")}"
    if (!q.isAggregate) {
      val proj = q.projection.map { case (c, n) => s"${c.column} AS $n" }.mkString(", ")
      Some(s"SELECT $proj FROM $from$whereSql")
    } else {
      val dims = q.groupOut.map { case (c, n) => s"${c.column} AS $n" }
      val aggs = q.aggs.map { a =>
        val f = a.func match {
          case "count_star" => "COUNT(*)"
          case other        => s"${other.toUpperCase}(${a.arg.get})"
        }
        s"$f AS ${a.outName}"
      }
      val groupCols = q.groupBy.get.map(_.column).distinct
      val groupSql = if (groupCols.isEmpty) "" else s" GROUP BY ${groupCols.mkString(", ")}"
      Some(s"SELECT ${(dims ++ aggs).mkString(", ")} FROM $from$whereSql$groupSql")
    }
  }

  /** The domain of column `c`, of type `dt`, as a SQL condition. */
  private def domSql(c: String, d: Dom, dt: DataType): String = {
    def in(vs: Seq[Any]) =
      if (vs.isEmpty) "FALSE" else s"$c IN (${vs.map(Spja.sqlLiteral(_, dt)).mkString(", ")})"
    d match {
      case n: NumDom => n.effectiveSet match {
        case Some(vals) => in(vals.toSeq.sorted)
        case None =>
          val parts = Seq(
            if (n.lo > Double.NegativeInfinity)
              Some(s"$c ${if (n.loIncl) ">=" else ">"} ${Spja.sqlLiteral(n.lo, dt)}") else None,
            if (n.hi < Double.PositiveInfinity)
              Some(s"$c ${if (n.hiIncl) "<=" else "<"} ${Spja.sqlLiteral(n.hi, dt)}") else None,
          ).flatten
          if (parts.isEmpty) "TRUE" else parts.mkString(" AND ")
      }
      case StrDom(vals) if vals.size == 1 => s"$c = ${Spja.sqlLiteral(vals.head, dt)}"
      case StrDom(vals)                   => in(vals.toSeq.sorted)
    }
  }

  /** Runs SQL in DuckDB and converts the result set into a DataFrame. */
  def executeSql(sql: String): DataFrame = Using.Manager { use =>
    val rs = use(use(conn.createStatement()).executeQuery(sql))
    val meta = rs.getMetaData
    val n = meta.getColumnCount
    val fields = (1 to n).map { i =>
      val dt = meta.getColumnType(i) match {
        case java.sql.Types.BIGINT  => LongType
        // DuckDB sums BIGINT into HUGEINT; Spark's SUM of a LONG is a LONG
        case _ if meta.getColumnTypeName(i) == "HUGEINT" => LongType
        case java.sql.Types.INTEGER => IntegerType
        case java.sql.Types.DOUBLE | java.sql.Types.FLOAT | java.sql.Types.NUMERIC
             | java.sql.Types.DECIMAL => DoubleType
        case java.sql.Types.DATE    => DateType
        case _                      => StringType
      }
      StructField(meta.getColumnLabel(i), dt)
    }
    val schema = StructType(fields)
    val rows = Iterator.continually(rs).takeWhile(_.next()).map { r =>
      Row.fromSeq((1 to n).map { i =>
        (fields(i - 1).dataType, r.getObject(i)) match {
          case (_, null)                 => null
          case (LongType, v: Number)     => v.longValue
          case (IntegerType, v: Number)  => v.intValue
          case (DoubleType, v: java.math.BigDecimal) => v.doubleValue
          case (DoubleType, v: Number)   => v.doubleValue
          case (DateType, v: java.sql.Date) => v
          case (_, v)                    => v.toString
        }
      })
    }.toVector
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 1), schema)
  }.get

  def close(): Unit = conn.close()
}
