package repro.util

/** Wall-clock measurement helpers shared by the benchmark harnesses. */
object Timing {

  /** Runs `body` and returns (result, elapsedMillis). */
  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1000000L)
  }

  /** Median of `reps` timed runs — robust to a slow first (JIT-cold) run. */
  def medianMillis(reps: Int)(body: => Unit): Long = {
    require(reps >= 1)
    val times = (1 to reps).map(_ => timed(body)._2).sorted
    times(times.size / 2)
  }

  /** Renders the comparison table used by the bench suites. */
  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    val lines = all.map(_.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |"))
    val sep = "-" * lines.head.length
    (title +: sep +: lines.head +: sep +: lines.tail :+ sep).mkString("\n")
  }
}
