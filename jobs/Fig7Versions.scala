package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.BenchRunners

/** spark-submit entrypoint reproducing **Figure 7** (§7.1) as a table:
  * per-query response times of "Hive v1.2" (container runtime, pre-2015
  * optimizer, reduced SQL surface) vs "Hive v3.1" (LLAP + multi-stage
  * optimizer, full suite), plus the isolated shared-work speedup.
  *
  * Usage: spark-submit --class repro.jobs.Fig7Versions <jar> [scaleFactor]
  */
object Fig7Versions {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.1)
    val spark = SparkSession.builder
      .appName("fig7-versions")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val r = BenchRunners.runFig7(spark, sf)
      println(BenchRunners.renderMode(
        s"Figure 7 — TPC-DS-lite SF=$sf, Hive v3.1 vs v1.2 ('-' = unsupported on v1.2)",
        Seq(r.v31, r.v12)))
      println(f"Paper:    v1.2 runs 50/99 queries; v3.1 avg 4.6x faster; aggregate v3.1(99) 15%% below v1.2(50)")
      println(f"Measured: v1.2 runs ${r.v12.times.size}/${r.v31.times.size} queries; " +
        f"avg speedup on common queries ${r.avgSpeedupCommon}%.2fx; " +
        f"v3.1 total ${r.v31.totalMs} ms vs v1.2 total ${r.v12.totalMs} ms")
      println(f"Without the modelled container delay: avg speedup " +
        f"${r.avgSpeedupCommonMeasured}%.2fx; v1.2 total ${r.v12.measuredMs} ms")
      println(f"Paper:    shared work alone makes q88 2.7x faster")
      println(f"Measured: q88-like ${r.sharedWorkOffMs} ms -> ${r.sharedWorkOnMs} ms " +
        f"(${r.sharedWorkSpeedup}%.2fx) with shared work; row groups read " +
        f"${r.sharedWorkOffGroups} -> ${r.sharedWorkOnGroups}")
    } finally spark.stop()
  }
}
