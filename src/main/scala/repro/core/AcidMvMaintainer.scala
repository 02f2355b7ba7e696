package repro.core

import scala.collection.concurrent.TrieMap

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.acid.AcidTable

/** Materialized view maintenance over ACID source tables (§4.4).
  *
  * The MV remembers the WriteId watermark of every source at the last
  * (re)build. A REBUILD first checks whether the sources only saw inserts
  * since then; if so the rebuild is *incremental*: the MV definition is
  * evaluated over each changed source's delta (rows with WriteId above the
  * watermark — the WriteId filter conditions of the paper) and the result
  * is applied as an INSERT (SPJ views) or a MERGE-style re-aggregation
  * (SPJA views). Updates or deletes force a full rebuild.
  *
  * Restriction mirroring the common warehouse case: incremental rebuild
  * requires that at most one source table (the fact) changed; dimension
  * changes force a full rebuild.
  */
final class AcidMvMaintainer(spark: SparkSession, sources: Map[String, AcidTable]) {
  private implicit val sp: SparkSession = spark

  final case class MvState(
      name: String,
      sql: String,
      query: SpjaQuery,
      watermarks: Map[String, Long])

  sealed trait RebuildMode
  case object Unchanged extends RebuildMode
  case object IncrementalInsert extends RebuildMode
  case object IncrementalMerge extends RebuildMode
  case object FullRebuild extends RebuildMode

  private val states = TrieMap[String, MvState]()
  private val mvCatalog = {
    val c = new MvCatalog(spark)
    refreshSourceViews()
    sources.keys.foreach(c.registerSource)
    c
  }

  /** Re-exposes every ACID source as a temp view at its current snapshot. */
  def refreshSourceViews(): Unit =
    sources.foreach { case (n, t) => t.readCurrent().createOrReplaceTempView(n) }

  /** Creates and materializes the MV, recording source watermarks. */
  def create(name: String, sql: String): MvState = {
    refreshSourceViews()
    val marks = sources.map { case (n, t) => n -> t.currentSnapshot().highWatermark }
    val mv = mvCatalog.createMaterializedView(name, sql)
    val st = MvState(name, sql, mv.query, marks)
    states.put(name, st)
    st
  }

  def contents(name: String): DataFrame = spark.table(name)

  /** REBUILD: incremental when possible, full otherwise. Returns the mode
    * actually used. */
  def rebuild(name: String): RebuildMode = {
    val st = states.getOrElse(name, throw new NoSuchElementException(s"no such MV: $name"))
    val changed = st.query.tables.toSeq.filter { t =>
      sources(t).currentSnapshot().highWatermark > st.watermarks(t)
    }
    val mode: RebuildMode =
      if (changed.isEmpty) Unchanged
      else if (changed.size == 1 && !sources(changed.head).hasDeletesSince(st.watermarks(changed.head)))
        if (st.query.isAggregate) IncrementalMerge else IncrementalInsert
      else FullRebuild

    mode match {
      case Unchanged => ()
      case FullRebuild => fullRebuild(st)
      case IncrementalInsert | IncrementalMerge =>
        val t = changed.head
        val snap = sources(t).currentSnapshot()
        // the MV definition re-evaluated over the source's delta only
        sources(t).readDelta(st.watermarks(t), snap).createOrReplaceTempView(t)
        val deltaResult = spark.sql(st.sql)
        val merged =
          if (mode == IncrementalInsert) contents(name).unionByName(deltaResult)
          // MERGE: union then re-aggregate by the group keys
          else st.query.reaggregate(contents(name).unionByName(deltaResult))
        val materialized = merged.cache()
        materialized.count()
        materialized.createOrReplaceTempView(name)
        // restore the full-table view for subsequent queries
        sources(t).readCurrent().createOrReplaceTempView(t)
    }

    if (mode != Unchanged) {
      val marks = sources.map { case (n, t) => n -> t.currentSnapshot().highWatermark }
      states.put(name, st.copy(watermarks = marks))
    }
    mode
  }

  private def fullRebuild(st: MvState): Unit = {
    refreshSourceViews()
    val df = spark.sql(st.sql).cache()
    df.count()
    df.createOrReplaceTempView(st.name)
  }
}
