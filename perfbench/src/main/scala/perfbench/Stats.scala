package perfbench

/** Order statistics used for every latency the benchmark reports. */
object Stats {

  /** Samples the tail figure must leave above itself. */
  val TailMinAbove = 10

  /** Nearest-rank percentile: the value at rank ceil(p/100 * n). */
  def percentile(values: Seq[Double], p: Double): Double = {
    require(values.nonEmpty, "percentile of no samples")
    val sorted = values.sorted
    sorted(rank(sorted.size, p) - 1)
  }

  def median(values: Seq[Double]): Double = percentile(values, 50.0)

  /** 1-based nearest rank of percentile `p` among `n` samples. */
  def rank(n: Int, p: Double): Int = math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)

  /** 1-based rank of the tail figure among `n` samples: the highest rank
    * that leaves [[TailMinAbove]] samples above it (the 11th largest), but
    * never below the median's rank. */
  def tailRank(n: Int): Int = math.max(n - TailMinAbove, rank(n, 50.0))

  /** The percentile the tail rule picks at `n` samples: p95 at 200,
    * p75 at 40, p50 at 20 or fewer. */
  def tailPercentile(n: Int): Double = 100.0 * tailRank(n) / n

  /** (percentile used, value) of the tail rule applied to `values`. */
  def tail(values: Seq[Double]): (Double, Double) = {
    require(values.nonEmpty, "tail of no samples")
    (tailPercentile(values.size), values.sorted.apply(tailRank(values.size) - 1))
  }
}
