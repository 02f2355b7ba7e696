package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.BenchRunners

/** spark-submit entrypoint reproducing **Table 1** (§7.2): aggregated
  * TPC-DS-lite response time with LLAP enabled vs container execution.
  *
  * Usage: spark-submit --class repro.jobs.Table1Llap <jar> [scaleFactor]
  */
object Table1Llap {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.1)
    val spark = SparkSession.builder
      .appName("table1-llap")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val r = BenchRunners.runTable1(spark, sf)
      println(BenchRunners.renderMode(
        s"Table 1 — TPC-DS-lite SF=$sf, container vs LLAP", Seq(r.container, r.llap)))
      println(f"Paper:    container 41576 s vs LLAP 15540 s  -> 2.7x")
      println(f"Measured: container ${r.container.totalMs} ms vs LLAP ${r.llap.totalMs} ms -> ${r.speedup}%.2fx")
      println(f"Without the modelled container delay: container ${r.container.measuredMs} ms " +
        f"vs LLAP ${r.llap.measuredMs} ms -> ${r.measuredSpeedup}%.2fx")
    } finally spark.stop()
  }
}
