package repro.bench

import repro.SparkSpec

/** Bench for **Table 1** (§7.2): aggregated TPC-DS response time with the
  * LLAP layer on vs plain container execution. Paper: 41576 s (container)
  * vs 15540 s (LLAP) — a 2.7x aggregate speedup from data caching, warm
  * executors and the absence of per-query container allocation.
  *
  * Scale via BENCH_SF (default 0.1 ≈ 100 MB fact table).
  */
class Table1LlapBench extends SparkSpec {

  private val sf = sys.env.getOrElse("BENCH_SF", "0.1").toDouble

  test("Table 1: LLAP mode beats container mode in aggregate") {
    val r = BenchRunners.runTable1(spark, sf)
    println(BenchRunners.renderMode(
      s"Table 1 — TPC-DS-lite SF=$sf, container vs LLAP", Seq(r.container, r.llap)))
    println(f"Paper:    container 41576 s vs LLAP 15540 s -> 2.68x")
    println(f"Measured: container ${r.container.totalMs} ms vs LLAP ${r.llap.totalMs} ms -> ${r.speedup}%.2fx")
    println(f"Without the modelled container delay: container ${r.container.measuredMs} ms " +
      f"vs LLAP ${r.llap.measuredMs} ms -> ${r.measuredSpeedup}%.2fx")

    assert(r.llap.totalMs < r.container.totalMs,
      "LLAP must reduce aggregate response time (paper: 2.7x)")
    assert(r.speedup > 1.5,
      f"aggregate speedup ${r.speedup}%.2fx too small to reproduce the 2.7x shape")
    // every single query should benefit from warm cache + no allocation
    val slower = r.llap.times.zip(r.container.times).count { case (l, c) => l.millis > c.millis }
    assert(slower <= 2, s"$slower queries slower under LLAP")
  }
}
