package repro.federation

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.metastore.TableDesc

/** Events delivered to a storage handler's metastore hook (§6.1): invoked
  * as part of transactions against the metastore. */
sealed trait HookEvent
final case class TableDropped(name: String) extends HookEvent

/** The storage handler interface (§6.1): input format (how to read,
  * including split parallelism and pushed-down queries), output format
  * (how to write) and a metastore hook. Each handler converts rows between
  * Spark and the external system inside its input and output formats.
  */
trait StorageHandler {
  def name: String

  /** Reads the external table, optionally executing a pushed-down query in
    * the external system and reading back its (possibly split) results. */
  def inputFormat(spark: SparkSession, table: TableDesc,
                  pushedQuery: Option[String]): DataFrame

  /** Writes a DataFrame out to the external system. */
  def outputFormat(df: DataFrame, table: TableDesc): Unit

  /** Notification methods invoked as part of metastore transactions. */
  def metastoreHook(event: HookEvent): Unit
}
