package repro.llap

import java.io.File
import java.util.{OptionalLong, Map => JMap}

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.sources
import org.apache.spark.sql.sources.DataSourceRegister
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.unsafe.types.UTF8String

import repro.core.{Dom, InPred, NumDom, Pred, RangePred}

/** DataSourceV2 provider for OrcLite directories served through the LLAP
  * I/O elevator (§5.1).
  *
  * Options:
  *   - `path`         directory of `*.orclite` files (one per split)
  *   - `llap.enabled` "true" (default) reads through the daemon's chunk and
  *                    metadata caches; "false" models container execution
  *                    reading straight from disk.
  *
  * Column pruning and sargable predicates are pushed into the elevator as
  * one core [[NumDom]] per column, which skips row groups via min/max and
  * Bloom indexes. All filters are also left for Spark to re-evaluate, so
  * pruning is purely an I/O optimization and never affects results.
  *
  * Each scan reports statistics to Spark's planner (§4.1) through
  * `SupportsReportStatistics`: the rows of the row groups that survive the
  * pushed domains, and the encoded bytes of the required columns in them,
  * both read from the OrcLite footers. Spark sizes joins by them, so a
  * small dimension is broadcast instead of shuffled with the fact table.
  * Both modes report the same figures; container mode reads the footers
  * from disk and leaves the caches cold.
  */
final class LlapTableProvider extends TableProvider with DataSourceRegister {

  override def shortName(): String = "orclite"

  override def supportsExternalMetadata(): Boolean = true

  override def inferSchema(options: CaseInsensitiveStringMap): StructType = {
    val dir = new File(Option(options.get("path"))
      .getOrElse(throw new IllegalArgumentException("orclite: missing 'path' option")))
    val first = LlapTableProvider.listFiles(dir).headOption
      .getOrElse(throw new IllegalArgumentException(s"orclite: no .orclite files in $dir"))
    OrcLite.readMeta(first).schema
  }

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: JMap[String, String]): Table = {
    val path = properties.get("path")
    val llap = Option(properties.get("llap.enabled")).forall(_.toBoolean)
    new LlapTable(path, schema, llap)
  }
}

object LlapTableProvider {
  def listFiles(dir: File): Seq[File] =
    Option(dir.listFiles()).map(_.toSeq).getOrElse(Seq.empty)
      .filter(f => f.isFile && f.getName.endsWith(".orclite")).sortBy(_.getName)
}

private final class LlapTable(path: String, tableSchema: StructType, llap: Boolean)
    extends Table with SupportsRead {
  override def name(): String = s"orclite:$path"
  override def schema(): StructType = tableSchema
  override def capabilities(): java.util.Set[TableCapability] =
    java.util.EnumSet.of(TableCapability.BATCH_READ)
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new LlapScanBuilder(path, tableSchema, llap)
}

private final class LlapScanBuilder(path: String, tableSchema: StructType, llap: Boolean)
    extends ScanBuilder with SupportsPushDownFilters with SupportsPushDownRequiredColumns {

  private var required: StructType = tableSchema
  private var accepted: Array[sources.Filter] = Array.empty
  private var doms: Map[String, NumDom] = Map.empty

  override def pushFilters(filters: Array[sources.Filter]): Array[sources.Filter] = {
    val (d, acc) = LlapScanBuilder.toDoms(filters)
    doms = d
    accepted = acc
    filters // all filters remain residual: Spark re-applies them on rows
  }

  override def pushedFilters(): Array[sources.Filter] = accepted

  override def pruneColumns(requiredSchema: StructType): Unit = { required = requiredSchema }

  override def build(): Scan = new LlapScan(path, required, doms, llap)
}

private object LlapScanBuilder {
  /** Maps v1 filters onto core predicates and folds them into one numeric
    * domain per column; returns (domains, accepted filters). */
  def toDoms(filters: Array[sources.Filter]): (Map[String, NumDom], Array[sources.Filter]) = {
    def num(v: Any): Option[Double] = v match {
      case n: Number         => Some(n.doubleValue)
      case d: java.sql.Date  => Some(d.toLocalDate.toEpochDay.toDouble)
      case d: java.time.LocalDate => Some(d.toEpochDay.toDouble)
      case _                 => None
    }
    // Bounds, row-group stats and IN values are doubles. From 2^53 on,
    // neighbouring longs share a double: a strict bound there stays
    // inclusive, and an equality or IN value is not pushed at all, since
    // the Bloom index would be probed with a rounded key.
    def exact(d: Double): Boolean = math.abs(d) < 9007199254740992.0
    def key(v: Any): Option[Double] = num(v).filter(exact)
    val inf = Double.PositiveInfinity

    val out = filters.flatMap { f =>
      val pred: Option[Pred] = f match {
        case sources.EqualTo(c, v)            => key(v).map(d => InPred(c, Set(d)))
        case sources.GreaterThan(c, v)        => num(v).map(d => RangePred(c, d, !exact(d), inf, true))
        case sources.GreaterThanOrEqual(c, v) => num(v).map(RangePred(c, _, true, inf, true))
        case sources.LessThan(c, v)           => num(v).map(d => RangePred(c, -inf, true, d, !exact(d)))
        case sources.LessThanOrEqual(c, v)    => num(v).map(RangePred(c, -inf, true, _, true))
        case sources.In(c, vs) =>
          val ds = vs.toSeq.map(key)
          if (ds.forall(_.isDefined)) Some(InPred(c, ds.flatten.toSet)) else None
        case _ => None
      }
      pred.map(p => (p, f))
    }
    val doms = Dom.ofPreds(out.map(_._1).toSeq).getOrElse(Map.empty)
      .collect { case (c, d: NumDom) => c -> d }
    (doms, out.map(_._2))
  }
}

private final case class LlapInputPartition(file: String) extends InputPartition

private final case class LlapStatistics(rows: Long, bytes: Long) extends Statistics {
  override def numRows(): OptionalLong = OptionalLong.of(rows)
  override def sizeInBytes(): OptionalLong = OptionalLong.of(bytes)
}

private final class LlapScan(path: String, required: StructType, doms: Map[String, NumDom], llap: Boolean)
    extends Scan with Batch with SupportsReportStatistics {
  private lazy val files = LlapTableProvider.listFiles(new File(path))

  /** Rows and encoded chunk bytes of the `required` columns in the row
    * groups that survive `doms`, from the footers the elevator reads (the
    * metadata cache in LLAP mode, the disk in container mode) and pruned
    * by the elevator's own test. Computed once: Spark asks several times
    * per plan. */
  private lazy val stats: LlapStatistics = {
    val groups = for {
      f <- files
      meta = LlapIo.elevator.readMeta(f, llap)
      cols = required.fieldNames.toSeq.map(meta.schema.fieldIndex)
      survives = IoElevator.groupSurvives(meta, doms)
      rg <- 0 until meta.rowGroups if survives(rg)
    } yield (meta.rowsInGroup(rg).toLong, cols.map(meta.index(rg)(_).length.toLong).sum)
    LlapStatistics(groups.map(_._1).sum, groups.map(_._2).sum)
  }

  override def estimateStatistics(): Statistics = stats
  override def readSchema(): StructType = required
  override def toBatch: Batch = this
  override def planInputPartitions(): Array[InputPartition] =
    files.map(f => LlapInputPartition(f.toString): InputPartition).toArray
  override def createReaderFactory(): PartitionReaderFactory =
    new LlapReaderFactory(required, doms, llap)
  override def description(): String =
    s"OrcLite(path=$path, llap=$llap, doms=${doms.mkString(",")})"
}

private final class LlapReaderFactory(required: StructType, doms: Map[String, NumDom], llap: Boolean)
    extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] = {
    val file = new File(partition.asInstanceOf[LlapInputPartition].file)
    new LlapPartitionReader(file, required, doms, llap)
  }
}

/** Streams InternalRows out of the elevator's row batches. */
private final class LlapPartitionReader(
    file: File, required: StructType, doms: Map[String, NumDom], llap: Boolean)
    extends PartitionReader[InternalRow] {

  private val batches =
    LlapIo.elevator.scan(file, required.fieldNames.toSeq, doms, useCache = llap)
  private var batch: RowBatch = _
  private var i = 0

  override def next(): Boolean = {
    while (batch == null || i >= batch.numRows) {
      if (!batches.hasNext) return false
      batch = batches.next(); i = 0
    }
    true
  }

  override def get(): InternalRow = {
    val row = new GenericInternalRow(required.length)
    var c = 0
    while (c < required.length) {
      val vec = batch.columns(c)
      if (vec.isNullAt(i)) row.setNullAt(c)
      else required.fields(c).dataType match {
        case LongType    => row.setLong(c, vec.getLong(i))
        case IntegerType => row.setInt(c, vec.getLong(i).toInt)
        case DateType    => row.setInt(c, vec.getLong(i).toInt)
        case DoubleType  => row.setDouble(c, vec.getDouble(i))
        case StringType  => row.update(c, UTF8String.fromString(vec.getString(i)))
        case other       => throw new IllegalArgumentException(s"unsupported: $other")
      }
      c += 1
    }
    i += 1
    row
  }

  override def close(): Unit = ()
}

/** Convenience API for writing/reading OrcLite tables from DataFrames. */
object LlapTables {

  /** Materializes `df` as `numFiles` OrcLite files under `dir`. */
  def writeTable(df: DataFrame, dir: File, numFiles: Int = 4,
                 rowGroupSize: Int = OrcLite.DefaultRowGroupSize): Unit = {
    require(numFiles > 0)
    dir.mkdirs()
    val schema = df.schema
    val target = dir.getAbsolutePath
    df.repartition(numFiles).rdd.foreachPartition { it =>
      // local[*] runtime: tasks share the driver filesystem
      val pid = org.apache.spark.TaskContext.getPartitionId()
      val rows = it.toArray
      if (rows.nonEmpty) {
        val f = new File(target, f"part-$pid%05d.orclite")
        OrcLite.write(f, schema, rows.iterator, rowGroupSize): Unit
      }
    }
  }

  /** Opens an OrcLite directory as a DataFrame via the DSv2 provider. */
  def read(spark: SparkSession, dir: File, llapEnabled: Boolean = true): DataFrame =
    spark.read
      .format(classOf[LlapTableProvider].getName)
      .option("path", dir.getAbsolutePath)
      .option("llap.enabled", llapEnabled.toString)
      .load()
}
