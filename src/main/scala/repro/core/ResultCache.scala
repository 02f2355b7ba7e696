package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.concurrent.{Await, Promise}
import scala.concurrent.duration.Duration
import scala.util.Success

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.{CurrentDate, CurrentTimestamp}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.types.StructType

/** Query results cache (§4.3).
  *
  * Keyed by the canonicalized analyzed plan (the AST with table references
  * resolved, exactly the paper's post-resolution AST probe). An entry also
  * records the transactional snapshot (per-table WriteId watermarks) it was
  * computed under; a hit requires the participating tables to be unchanged.
  *
  * Ineligible queries — non-deterministic functions (rand) or runtime
  * constants (current_date, current_timestamp) — are never cached.
  *
  * The *pending-entry* mode guards against a thundering herd: the first
  * query computing a key installs a pending promise, and identical
  * concurrent queries wait for its result instead of recomputing. If the
  * first query fails, only it throws: each waiter then computes the result
  * itself.
  */
final class ResultCache(spark: SparkSession, maxEntries: Int = 64) {

  private final case class Entry(rows: Array[Row], schema: StructType,
                                 snapshot: Map[String, Long], tick: Long)

  private val entries = new ConcurrentHashMap[LogicalPlan, Entry]()
  private val pending = new ConcurrentHashMap[LogicalPlan, Promise[Entry]]()
  private val ticks = new AtomicLong
  val hits = new AtomicLong; val misses = new AtomicLong; val herdWaits = new AtomicLong

  /** True when the plan may legally be cached. */
  def isEligible(df: DataFrame): Boolean = {
    val plan = df.queryExecution.analyzed
    val bad = plan.collect { case node => node }.exists(_.expressions.exists(_.exists {
      case _: CurrentDate | _: CurrentTimestamp => true
      case e if !e.deterministic               => true
      case _                                    => false
    }))
    !bad
  }

  /** Returns the query result, serving it from the cache when the same
    * query was answered under an identical snapshot. `snapshot` maps each
    * participating table to its current WriteId watermark.
    * The boolean is true on a cache hit. */
  def getOrCompute(df: DataFrame, snapshot: Map[String, Long]): (Seq[Row], Boolean) = {
    if (!isEligible(df)) return (df.collect().toSeq, false)
    val key = df.queryExecution.analyzed.canonicalized

    val cached = entries.get(key)
    if (cached != null && cached.snapshot == snapshot) {
      hits.incrementAndGet()
      return (cached.rows.toSeq, true)
    }

    // pending-entry mode
    val myPromise = Promise[Entry]()
    val existing = pending.putIfAbsent(key, myPromise)
    if (existing != null) {
      herdWaits.incrementAndGet()
      // a waiter whose leader failed computes the result itself
      return Await.ready(existing.future, Duration.Inf).value.get match {
        case Success(e) if e.snapshot == snapshot => hits.incrementAndGet(); (e.rows.toSeq, true)
        case _ => misses.incrementAndGet(); (df.collect().toSeq, false)
      }
    }

    try {
      misses.incrementAndGet()
      val rows = df.collect()
      val entry = Entry(rows, df.schema, snapshot, ticks.incrementAndGet())
      entries.put(key, entry)
      expungeIfNeeded()
      myPromise.success(entry)
      (rows.toSeq, false)
    } catch {
      case t: Throwable => myPromise.failure(t); throw t
    } finally pending.remove(key, myPromise)
  }

  /** Drops entries computed over tables whose WriteId moved (invalidation
    * on data change); also called by tests. */
  def invalidateTable(table: String, currentWriteId: Long): Unit = {
    entries.entrySet().removeIf { e =>
      e.getValue.snapshot.get(table).exists(_ != currentWriteId)
    }: Unit
  }

  /** LRU-ish expunge of stale entries beyond capacity. */
  private def expungeIfNeeded(): Unit = {
    while (entries.size() > maxEntries) {
      val oldest = entries.entrySet().stream()
        .min((a, b) => java.lang.Long.compare(a.getValue.tick, b.getValue.tick))
      if (oldest.isPresent) entries.remove(oldest.get().getKey) else return
    }
  }

  def entryCount: Int = entries.size()
  def clear(): Unit = entries.clear()
}
