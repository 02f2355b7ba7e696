package repro.bench

import repro.SparkSpec

/** Bench for **Figure 7** (§7.1), reported as a table: "Hive v1.2"
  * (container runtime, pre-2015 optimizer, reduced SQL surface — runs 16
  * of our 20 queries, mirroring the 50/99 of the paper) vs "Hive v3.1"
  * (LLAP + multi-stage optimizer — runs all 20). Paper claims: v3.1 avg
  * 4.6x faster on common queries; v3.1's aggregate over ALL queries is
  * still 15% below v1.2's aggregate over its subset; shared work alone
  * makes q88 2.7x faster.
  */
class Fig7VersionsBench extends SparkSpec {

  private val sf = sys.env.getOrElse("BENCH_SF", "0.1").toDouble

  test("Figure 7: v3.1 dominates v1.2 and runs the full suite") {
    val r = BenchRunners.runFig7(spark, sf)
    println(BenchRunners.renderMode(
      s"Figure 7 — TPC-DS-lite SF=$sf, Hive v3.1 vs v1.2 ('-' = unsupported on v1.2)",
      Seq(r.v31, r.v12)))
    println(f"Paper:    v1.2 runs 50/99; avg speedup 4.6x; v3.1 total (99 q) 15%% below v1.2 total (50 q)")
    println(f"Measured: v1.2 runs ${r.v12.times.size}/${r.v31.times.size}; " +
      f"avg speedup ${r.avgSpeedupCommon}%.2fx; v3.1 total ${r.v31.totalMs} ms " +
      f"vs v1.2 total ${r.v12.totalMs} ms")
    println(f"Without the modelled container delay: avg speedup ${r.avgSpeedupCommonMeasured}%.2fx; " +
      f"v1.2 total ${r.v12.measuredMs} ms")
    println(f"Paper:    shared work makes q88 2.7x faster")
    println(f"Measured: q88 ${r.sharedWorkOffMs} ms -> ${r.sharedWorkOnMs} ms = ${r.sharedWorkSpeedup}%.2fx; " +
      f"row groups read ${r.sharedWorkOffGroups} -> ${r.sharedWorkOnGroups}")

    // SQL-surface claim: v3.1 executes queries v1.2 cannot
    assert(r.v31.times.size == 20 && r.v12.times.size == 16)
    // per-query speedup shape
    assert(r.avgSpeedupCommon > 1.5,
      f"avg common-query speedup ${r.avgSpeedupCommon}%.2fx, expected clearly > 1")
    // the paper's headline: the full v3.1 suite is cheaper than v1.2's subset
    assert(r.v31.totalMs < r.v12.totalMs,
      "v3.1 aggregate over all queries should undercut v1.2's aggregate over its subset")
    // shared work really shares: with 8 repeated subexpressions, the IO
    // performed should collapse to roughly 1/8 (deterministic, unlike
    // wall-clock at this scale, which is reported above for reference)
    assert(r.sharedWorkOnGroups * 2 <= r.sharedWorkOffGroups,
      s"shared work did not reduce IO: ${r.sharedWorkOffGroups} -> ${r.sharedWorkOnGroups} row groups")
  }
}
