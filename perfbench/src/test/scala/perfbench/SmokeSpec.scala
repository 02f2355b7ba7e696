package perfbench

import java.io.File

import scala.io.Source

import org.scalatest.funsuite.AnyFunSuite

/** Tiny-scale run of every workload, untraced and traced: each run must
  * get every answer right and emit exactly the catalogue's metrics with
  * their units. */
class SmokeSpec extends AnyFunSuite {

  private val benchJson: String = {
    val src = Source.fromFile(new File("..", "BENCHMARK.json"), "UTF-8")
    try src.mkString finally src.close()
  }

  /** (name, unit) pairs of one metric list in BENCHMARK.json. */
  private def declared(list: String): Seq[(String, String)] = {
    val body = benchJson.split("\"" + list + "\"", 2)(1).takeWhile(_ != ']')
    "\\{\\s*\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*\"([^\"]+)\"".r
      .findAllMatchIn(body).map(m => m.group(1) -> m.group(2)).toSeq
  }

  private val workloads: Seq[String] =
    "\\{\\s*\"name\":\\s*\"([^\"]+)\",\\s*\"why\"".r.findAllMatchIn(benchJson).map(_.group(1)).toSeq

  test("BENCHMARK.json and the metric catalogue agree") {
    assert(declared("end_to_end") == Metrics.EndToEnd.map(m => m.name -> m.unit))
    assert(declared("per_layer") == Metrics.PerLayer.map(m => m.name -> m.unit))
    assert(workloads.nonEmpty && workloads.forall(Bench.Workloads.contains))
  }

  private def deleteRecursively(f: File): Unit = {
    Option(f.listFiles()).foreach(_.foreach(deleteRecursively))
    f.delete()
  }

  for (w <- Bench.Workloads; trace <- Seq(false, true)) test(s"$w emits every metric (trace=$trace)") {
    val work = java.nio.file.Files.createTempDirectory(new File("target").getAbsoluteFile.toPath, "smoke").toFile
    val cfg = Bench.Config(w, seed = 7, seconds = 0.5, trace = trace, sf = 0.01,
      work = work, out = new File(work, "result.json"), t0Ms = System.currentTimeMillis(),
      sourceSha = "test")
    val r = try Bench.run(cfg) finally deleteRecursively(work)
    assert(r.attempted > 0)
    assert(r.correct, s"${r.failed} of ${r.attempted} operations failed")
    val expected = if (trace) Metrics.PerLayer else Metrics.EndToEnd
    assert(r.metrics.map(_._1) == expected.map(_.name))
    r.metrics.foreach { case (n, v) => assert(!v.isNaN && !v.isInfinite, n) }
    if (!trace) r.metrics.foreach { case (n, v) => assert(v > 0, n) }
    val json = r.toJson
    expected.foreach(m => assert(json.contains(s""""${m.name}": {"value": """) && json.contains(s""""unit": "${m.unit}"""")))
    Seq("source_sha", "nproc", "sf", "seed", "jvm", "spark_master", "shuffle_partitions",
      "query_tail_percentile").foreach(k => assert(r.provenance.contains(k), k))
  }
}
