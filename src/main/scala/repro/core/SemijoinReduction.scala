package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.util.sketch.BloomFilter

import repro.acid.AcidTable

/** Dynamic semijoin reduction (§4.6).
  *
  * The filtered dimension subexpression is evaluated first; the produced
  * join-key values then reduce the fact-side scan:
  *
  *   - **Dynamic partition pruning** — when the fact table is partitioned
  *     by the join column, the values select which partition directories
  *     are read at all.
  *   - **Index semijoin** — otherwise the values populate a semijoin
  *     reducer: a [min, max] range condition plus a Bloom filter. Small
  *     key sets are pushed as IN-lists (which the LLAP elevator turns into
  *     row-group skips via its min/max + Bloom indexes); larger sets apply
  *     the range + Bloom filter at the scan.
  */
object SemijoinReduction {

  /** What the reducer did, for tests and benches. */
  final case class ReducerInfo(
      distinctKeys: Int,
      strategy: String, // "in-pushdown" | "range-bloom"
      min: Long, max: Long)

  /** Evaluates the dimension side and prunes fact partitions dynamically.
    * Returns the reduced fact DataFrame plus the partition values kept. */
  def prunePartitions(
      fact: AcidTable,
      dimFiltered: DataFrame,
      dimJoinCol: String)(implicit spark: SparkSession): (DataFrame, Set[String]) = {
    val keep = dimFiltered.select(dimJoinCol).distinct()
      .collect().map(r => String.valueOf(r.get(0))).toSet
    val reduced = fact.read(fact.currentSnapshot(), partitionFilter = Some(keep.contains))
    (reduced, keep)
  }

  /** Evaluates the dimension side and reduces an arbitrary fact DataFrame
    * with a semijoin reducer on `factCol`. */
  def reduceFact(
      fact: DataFrame,
      factCol: String,
      dimFiltered: DataFrame,
      dimJoinCol: String,
      maxInPushdown: Int = 1000): (DataFrame, ReducerInfo) = {
    val keys = dimFiltered.select(col(dimJoinCol).cast("long")).distinct()
      .collect().map(_.getLong(0))
    require(keys.nonEmpty, "semijoin reducer with empty dimension side")
    val mn = keys.min; val mx = keys.max

    if (keys.length <= maxInPushdown) {
      // IN-list pushdown: lands in the scan as an In filter, which the
      // OrcLite elevator prunes with min/max and Bloom indexes
      val reduced = fact.where(col(factCol).isin(keys.map(_.asInstanceOf[Any]).toSeq: _*))
      (reduced, ReducerInfo(keys.length, "in-pushdown", mn, mx))
    } else {
      val bloom = BloomFilter.create(keys.length.toLong, 0.03)
      keys.foreach(bloom.putLong)
      val mightContain = udf((v: Long) => bloom.mightContainLong(v))
      val reducer: Column =
        col(factCol) >= mn && col(factCol) <= mx && mightContain(col(factCol))
      (fact.where(reducer), ReducerInfo(keys.length, "range-bloom", mn, mx))
    }
  }

  /** Full semijoin-reduced star join: reduces the fact scan with the
    * filtered dimension, then performs the actual join. The reduction is a
    * pure optimization — results equal the plain join. */
  def reducedJoin(
      fact: DataFrame,
      factCol: String,
      dimFiltered: DataFrame,
      dimJoinCol: String,
      maxInPushdown: Int = 1000): (DataFrame, ReducerInfo) = {
    val (reduced, info) = reduceFact(fact, factCol, dimFiltered, dimJoinCol, maxInPushdown)
    (reduced.join(dimFiltered, col(factCol) === col(dimJoinCol)), info)
  }
}
