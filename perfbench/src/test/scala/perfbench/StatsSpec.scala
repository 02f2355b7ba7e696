package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  private def samples(n: Int): Seq[Double] = scala.util.Random.shuffle((1 to n).map(_.toDouble))

  test("nearest-rank percentiles") {
    val xs = samples(10)
    assert(Stats.percentile(xs, 50) == 5.0)
    assert(Stats.percentile(xs, 90) == 9.0)
    assert(Stats.percentile(xs, 100) == 10.0)
    assert(Stats.percentile(xs, 1) == 1.0)
    assert(Stats.median(Seq(3.0)) == 3.0)
  }

  test("the tail is the highest percentile with 10 samples above it") {
    assert(Stats.tail(samples(200)) == ((95.0, 190.0)))
    assert(Stats.tail(samples(40)) == ((75.0, 30.0)))
    assert(Stats.tail(samples(52)) == ((100.0 * 42 / 52, 42.0)))
    // exactly 10 samples above the value used
    Seq(21, 39, 100, 1000).foreach { n =>
      val (_, v) = Stats.tail(samples(n))
      assert(samples(n).count(_ > v) == 10, s"n=$n")
    }
  }

  test("with 20 samples or fewer the tail falls back to the median") {
    assert(Stats.tail(samples(20)) == ((50.0, 10.0)))
    assert(Stats.tail(samples(7)) == ((100.0 * 4 / 7, 4.0)))
    Seq(1, 2, 5, 20).foreach(n => assert(Stats.tail(samples(n))._2 == Stats.median(samples(n))))
  }
}
