package repro.metastore

import org.apache.spark.sql.types.StructType
import scala.collection.concurrent.TrieMap

/** Descriptor for a table registered in the metastore.
  *
  * @param name          unqualified table name
  * @param schema        logical schema (user columns only; ACID row ids are
  *                      managed by the storage layer)
  * @param location      directory holding the table data
  * @param partitionCol  Hive `PARTITIONED BY` column, if any — each distinct
  *                      value gets its own sub-directory (§3.1)
  */
final case class TableDesc(
    name: String,
    schema: StructType,
    location: String,
    partitionCol: Option[String] = None)

/** In-process Hive Metastore substrate.
  *
  * The real HMS persists tables, partitions, statistics and transaction
  * state in an RDBMS behind a Thrift API. Here tables live in a thread-safe
  * map; the transaction tables are in [[TxnStore]]. Partitions are not
  * registered: the `col=value` directories of an ACID table decide which
  * exist (`repro.acid.AcidTable`). Statistics are not mirrored: the planner
  * reads row counts and sizes from the OrcLite footers through the scan
  * (§4.1), see `repro.llap.LlapScan`.
  */
final class Catalog {
  private val tables = new TrieMap[String, TableDesc]

  /** Transaction state, co-located with the catalog as in HMS (§3.2). */
  val txns: TxnStore = new TxnStore

  def createTable(desc: TableDesc): Unit =
    require(tables.putIfAbsent(desc.name, desc).isEmpty, s"table already exists: ${desc.name}")

  def table(name: String): TableDesc =
    tables.getOrElse(name, throw new NoSuchElementException(s"no such table: $name"))

  def tableExists(name: String): Boolean = tables.contains(name)
}
