package repro.llap

import java.io.File
import java.util.{OptionalLong, Map => JMap}

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.{Expressions, NamedReference, Transform}
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.sources
import org.apache.spark.sql.sources.DataSourceRegister
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.unsafe.types.UTF8String

import repro.core.{Dom, NumDom}

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
  *
  * Each scan also accepts Spark's runtime filters (§4.6's semijoin
  * reduction) through `SupportsRuntimeFiltering`. When a join's other side
  * is filtered and broadcast, Spark's dynamic pruning hands the scan that
  * side's join keys as an IN filter; the scan folds it into its domains,
  * so the elevator skips the row groups no key can reach and files with no
  * surviving row group are not read at all. The scan offers only the
  * numeric columns on which two row groups have disjoint [min, max]
  * ranges: on data not clustered by a column, no row group could be
  * skipped by range, so Spark plans no runtime filter for it.
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
  /** Maps v1 filters through [[Dom]]'s constructors and folds the numeric
    * domains into one per column; returns (domains, accepted filters). A
    * filter whose constant yields no domain is not pushed: from 2^53 on
    * (see `Dom`), the elevator would skip a row group by a rounded bound or
    * probe the Bloom index with a rounded key. */
  def toDoms(filters: Array[sources.Filter]): (Map[String, NumDom], Array[sources.Filter]) = {
    val out = filters.flatMap { f =>
      val dom: Option[(String, Dom)] = f match {
        case sources.EqualTo(c, v)            => Dom.equalTo(v).map(c -> _)
        case sources.GreaterThan(c, v)        => Dom.greaterThan(v).map(c -> _)
        case sources.GreaterThanOrEqual(c, v) => Dom.greaterThanOrEqual(v).map(c -> _)
        case sources.LessThan(c, v)           => Dom.lessThan(v).map(c -> _)
        case sources.LessThanOrEqual(c, v)    => Dom.lessThanOrEqual(v).map(c -> _)
        case sources.In(c, vs)                => Dom.in(vs.toSeq).map(c -> _)
        case _                                => None
      }
      dom.collect { case (c, d: NumDom) => ((c, d), f) }
    }
    (out.map(_._1).groupMapReduce(_._1)(_._2)(_ intersect _), out.map(_._2))
  }
}

/** One file to read, with the domains its reader prunes by: Spark builds
  * the reader factory at planning time, before runtime filters arrive. */
private final case class LlapInputPartition(file: String, doms: Map[String, NumDom]) extends InputPartition

private final case class LlapStatistics(rows: Long, bytes: Long) extends Statistics {
  override def numRows(): OptionalLong = OptionalLong.of(rows)
  override def sizeInBytes(): OptionalLong = OptionalLong.of(bytes)
}

private final class LlapScan(path: String, required: StructType, pushed: Map[String, NumDom], llap: Boolean)
    extends Scan with Batch with SupportsReportStatistics with SupportsRuntimeFiltering {

  /** The footers the elevator reads (the metadata cache in LLAP mode, the
    * disk in container mode), read once: Spark asks for the statistics and
    * the filter attributes several times per plan. */
  private lazy val metas: Seq[(File, OrcLiteMeta)] =
    LlapTableProvider.listFiles(new File(path)).map(f => f -> LlapIo.elevator.readMeta(f, llap))

  /** The pushed domains, narrowed by the runtime filters Spark passes. */
  private var doms: Map[String, NumDom] = pushed
  /** Files `planInputPartitions` has left out. */
  private val leftOut = mutable.Set.empty[File]

  /** Rows and encoded chunk bytes of the `required` columns in the row
    * groups that survive the pushed domains, pruned by the elevator's own
    * test. */
  private lazy val stats: LlapStatistics = {
    val groups = for {
      (_, meta) <- metas
      cols = required.fieldNames.toSeq.map(meta.schema.fieldIndex)
      survives = IoElevator.groupSurvives(meta, pushed)
      rg <- 0 until meta.rowGroups if survives(rg)
    } yield (meta.rowsInGroup(rg).toLong, cols.map(meta.index(rg)(_).length.toLong).sum)
    LlapStatistics(groups.map(_._1).sum, groups.map(_._2).sum)
  }

  /** The required columns on which two row groups have disjoint [min, max]
    * ranges: a property of how the data is laid out, read from the footers.
    * Doubles are left out: Spark wraps a floating-point join key in NaN
    * normalization, and such a runtime filter never reaches the scan. */
  private lazy val rangeClustered: Array[NamedReference] =
    required.fields.collect { case f if f.dataType != DoubleType => f.name }.filter { c =>
      val ranges = for {
        (_, meta) <- metas
        idx <- meta.index.toSeq.map(_(meta.schema.fieldIndex(c)))
        mn <- idx.min
        mx <- idx.max
      } yield (mn, mx)
      ranges.nonEmpty && ranges.map(_._2).min < ranges.map(_._1).max
    }.map(c => Expressions.column(c): NamedReference)

  override def estimateStatistics(): Statistics = stats
  override def filterAttributes(): Array[NamedReference] = rangeClustered
  override def filter(filters: Array[sources.Filter]): Unit =
    doms = LlapScanBuilder.toDoms(filters)._1.foldLeft(doms) { case (m, (c, d)) =>
      m.updated(c, m.get(c).fold(d)(_.intersect(d)))
    }
  override def readSchema(): StructType = required
  override def toBatch: Batch = this
  /** One partition per file in which some row group survives `doms`. The
    * elevator never opens a file left out, so its row groups count as
    * skipped here, once per scan. */
  override def planInputPartitions(): Array[InputPartition] = {
    val (kept, left) = metas.partition { case (_, meta) =>
      (0 until meta.rowGroups).exists(IoElevator.groupSurvives(meta, doms))
    }
    for ((f, meta) <- left if leftOut.add(f)) LlapIo.elevator.metrics.rowGroupsSkipped.addAndGet(meta.rowGroups)
    kept.map { case (f, _) => LlapInputPartition(f.toString, doms): InputPartition }.toArray
  }
  override def createReaderFactory(): PartitionReaderFactory = new LlapReaderFactory(required, llap)
  override def description(): String =
    s"OrcLite(path=$path, llap=$llap, doms=${doms.mkString(",")})"
}

private final class LlapReaderFactory(required: StructType, llap: Boolean) extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] = {
    val p = partition.asInstanceOf[LlapInputPartition]
    new LlapPartitionReader(new File(p.file), required, p.doms, llap)
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
