package perfbench

/** The metric catalogue. Names and units here must match BENCHMARK.json;
  * the smoke test checks that every run emits exactly these. */
object Metrics {
  final case class Metric(name: String, unit: String)

  /** Measured with tracing off, on every workload. */
  val EndToEnd: Seq[Metric] = Seq(
    Metric("setup_s", "s"),
    Metric("query_p50_ms", "ms"),
    Metric("query_tail_ms", "ms"),
    Metric("throughput_ops_s", "ops/s"),
    Metric("heap_live_mb", "MB"),
  )

  /** Emitted by the traced run. A metric whose layer the workload does not
    * run reads 0; see perfbench/METRICS.md for which workload moves which. */
  val PerLayer: Seq[Metric] = Seq(
    // end-to-end figures that exist on some workloads only
    Metric("write_p50_ms", "ms"),
    Metric("write_tail_ms", "ms"),
    Metric("space_amp", "ratio"),
    Metric("failed_frac", "ratio"),
    Metric("trace.overhead_ms", "ms"),
    // query spans
    Metric("query.self_ms", "ms"),
    Metric("spark.plan_ms", "ms"),
    Metric("spark.exec_ms", "ms"),
    // repro.core
    Metric("core.shared_work_ms", "ms"),
    Metric("core.shared_subplans", "count"),
    Metric("core.leftover_persists", "count"),
    Metric("core.mv_rewrite_ms", "ms"),
    Metric("core.mv_full_rewrites", "count"),
    // repro.llap
    Metric("llap.cache_hits", "count"),
    Metric("llap.cache_misses", "count"),
    Metric("llap.cache_evictions", "count"),
    Metric("llap.cache_hit_ratio", "ratio"),
    Metric("llap.cache_used_mb", "MB"),
    Metric("llap.row_groups_read", "count"),
    Metric("llap.row_groups_skipped", "count"),
    Metric("llap.rg_skip_ratio", "ratio"),
    Metric("llap.cache_get_ns", "ns"),
    Metric("llap.cache_put_ns_fit", "ns"),
    Metric("llap.cache_put_ns_oversub", "ns"),
    Metric("llap.decode_mb_s", "MB/s"),
    Metric("llap.read_meta_ms", "ms"),
    Metric("llap.elevator_rows_s_warm", "rows/s"),
    Metric("llap.elevator_rows_s_cold", "rows/s"),
    Metric("llap.dsv2_rows_s", "rows/s"),
    Metric("ref.parquet_rows_s", "rows/s"),
    // repro.federation
    Metric("federation.ingest_s", "s"),
    Metric("federation.pushdown_ms", "ms"),
    Metric("federation.pushed", "count"),
    Metric("federation.druid_execute_ms", "ms"),
    Metric("federation.segments_scanned", "count"),
    Metric("federation.segments_pruned", "count"),
    Metric("federation.prune_ratio", "ratio"),
    // repro.acid
    Metric("acid.read_ms", "ms"),
    Metric("acid.store_dirs", "count"),
    Metric("acid.insert_ms", "ms"),
    Metric("acid.update_ms", "ms"),
    Metric("acid.delete_ms", "ms"),
    Metric("acid.merge_ms", "ms"),
    Metric("acid.merge_same_part_fails", "count"),
    Metric("acid.compact_minor_ms", "ms"),
    Metric("acid.compact_major_ms", "ms"),
    Metric("acid.compactions", "count"),
    Metric("acid.bytes_rewritten_mb", "MB"),
    Metric("acid.disk_mb", "MB"),
    // repro.metastore
    Metric("metastore.snapshot_us", "us"),
    Metric("metastore.commit_us", "us"),
    Metric("metastore.invalid_writeids", "count"),
    Metric("metastore.snapshot_us.h1e3", "us"),
    Metric("metastore.snapshot_us.h1e5", "us"),
    Metric("metastore.commit_us.h1e3", "us"),
    Metric("metastore.commit_us.h1e5", "us"),
  )

  def unitOf(name: String): String =
    (EndToEnd ++ PerLayer).find(_.name == name).map(_.unit)
      .getOrElse(throw new NoSuchElementException(s"unknown metric $name"))
}
