package repro.metastore

import org.apache.spark.sql.types.StructType
import scala.collection.concurrent.TrieMap

/** Descriptor for a table registered in the metastore.
  *
  * @param name          unqualified table name
  * @param schema        logical schema (user columns only; ACID row ids are
  *                      managed by the storage layer)
  * @param location      directory holding the table data (empty for external
  *                      engines)
  * @param partitionCol  Hive `PARTITIONED BY` column, if any — each distinct
  *                      value gets its own sub-directory (§3.1)
  * @param storageHandler identifier of the storage handler backing the table
  *                      ("native", "druid", "jdbc", ...; §6.1)
  * @param properties    free-form table properties (e.g. MV staleness window)
  */
final case class TableDesc(
    name: String,
    schema: StructType,
    location: String,
    partitionCol: Option[String] = None,
    storageHandler: String = "native",
    properties: Map[String, String] = Map.empty)

/** In-process Hive Metastore substrate.
  *
  * The real HMS persists tables, partitions, statistics, transaction state
  * and resource plans in an RDBMS behind a Thrift API. Here the same state
  * lives in thread-safe maps with the same operations; the transaction
  * tables are in [[TxnStore]]. Statistics are not mirrored: the planner
  * reads row counts and sizes from the OrcLite footers through the scan
  * (§4.1), see `repro.llap.LlapScan`.
  */
final class Catalog {
  private val tables = new TrieMap[String, TableDesc]
  private val partitions = new TrieMap[String, Set[String]] // table -> partition values
  private val resourcePlans = new TrieMap[String, ResourcePlanDef]
  @volatile private var activePlan: Option[String] = None

  /** Transaction/lock state, co-located with the catalog as in HMS (§3.2). */
  val txns: TxnStore = new TxnStore

  def createTable(desc: TableDesc): Unit = {
    require(tables.putIfAbsent(desc.name, desc).isEmpty, s"table already exists: ${desc.name}")
    partitions.put(desc.name, Set.empty)
  }

  def dropTable(name: String): Unit = {
    tables.remove(name); partitions.remove(name)
  }

  def table(name: String): TableDesc =
    tables.getOrElse(name, throw new NoSuchElementException(s"no such table: $name"))

  def tableExists(name: String): Boolean = tables.contains(name)

  def listTables(): Seq[String] = tables.keys.toSeq.sorted

  /** Registers partition values as data lands in per-value directories. */
  def addPartitions(table: String, values: Iterable[String]): Unit =
    partitions.updateWith(table) { prev => Some(prev.getOrElse(Set.empty) ++ values) }

  def listPartitions(table: String): Set[String] = partitions.getOrElse(table, Set.empty)

  // ---- resource plans (§5.2): persisted by Hive in HMS ----

  def createResourcePlan(plan: ResourcePlanDef): Unit = {
    require(resourcePlans.putIfAbsent(plan.name, plan).isEmpty,
      s"resource plan already exists: ${plan.name}")
  }

  def alterResourcePlan(plan: ResourcePlanDef): Unit = resourcePlans.put(plan.name, plan)

  def resourcePlan(name: String): ResourcePlanDef =
    resourcePlans.getOrElse(name, throw new NoSuchElementException(s"no such resource plan: $name"))

  /** Only one plan may be active per deployment at a time. */
  def activateResourcePlan(name: String): Unit = {
    require(resourcePlans.contains(name), s"no such resource plan: $name")
    activePlan = Some(name)
  }

  def activeResourcePlan: Option[ResourcePlanDef] = activePlan.map(resourcePlans(_))
}
