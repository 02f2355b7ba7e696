package repro.core

import java.util.concurrent.{Callable, CountDownLatch, ExecutionException, Executors, TimeUnit}
import java.util.concurrent.atomic.AtomicBoolean

import org.apache.spark.sql.functions._

import repro.SparkSpec

class ResultCacheSpec extends SparkSpec with StarFixture {

  private def freshCache(maxEntries: Int = 64) = new ResultCache(spark, maxEntries)

  private val snapA = Map("store_sales" -> 1L)
  private val snapB = Map("store_sales" -> 2L)

  private def q1 = spark.sql("SELECT COUNT(*) AS c FROM store_sales WHERE ss_quantity > 3")

  test("second identical query under the same snapshot is a hit") {
    starCatalog()
    val cache = freshCache()
    val (r1, hit1) = cache.getOrCompute(q1, snapA)
    val (r2, hit2) = cache.getOrCompute(q1, snapA)
    assert(!hit1 && hit2)
    assert(r1 == r2)
    assert(cache.hits.get == 1 && cache.misses.get == 1)
  }

  test("textually different but semantically identical queries share an entry") {
    starCatalog()
    val cache = freshCache()
    cache.getOrCompute(
      spark.sql("SELECT COUNT(*) AS c FROM store_sales WHERE ss_quantity > 3"), snapA)
    val (_, hit) = cache.getOrCompute(
      spark.sql("select count(*) AS c from store_sales where ss_quantity > 3"), snapA)
    assert(hit, "canonicalized-plan keying should unify equivalent ASTs")
  }

  test("a snapshot change is a miss (transactional consistency)") {
    starCatalog()
    val cache = freshCache()
    cache.getOrCompute(q1, snapA)
    val (_, hit) = cache.getOrCompute(q1, snapB)
    assert(!hit, "stale result served after the table changed")
  }

  test("different queries do not collide") {
    starCatalog()
    val cache = freshCache()
    cache.getOrCompute(q1, snapA)
    val (_, hit) = cache.getOrCompute(
      spark.sql("SELECT COUNT(*) AS c FROM store_sales WHERE ss_quantity > 4"), snapA)
    assert(!hit)
  }

  test("non-deterministic queries are never cached") {
    starCatalog()
    val cache = freshCache()
    val q = spark.sql("SELECT COUNT(*) AS c FROM store_sales WHERE rand() > 0.5")
    assert(!cache.isEligible(q))
    cache.getOrCompute(q, snapA)
    cache.getOrCompute(q, snapA)
    assert(cache.hits.get == 0 && cache.entryCount == 0)
  }

  test("runtime-constant functions (current_date/current_timestamp) are ineligible") {
    starCatalog()
    assert(!new ResultCache(spark).isEligible(
      spark.sql("SELECT COUNT(*) AS c FROM store_sales WHERE ss_quantity > 0 AND current_date() > DATE'2000-01-01'")))
    assert(!new ResultCache(spark).isEligible(
      spark.sql("SELECT current_timestamp() AS t, COUNT(*) AS c FROM store_sales")))
  }

  test("invalidateTable expunges entries of the changed table") {
    starCatalog()
    val cache = freshCache()
    cache.getOrCompute(q1, snapA)
    assert(cache.entryCount == 1)
    cache.invalidateTable("store_sales", currentWriteId = 2L)
    assert(cache.entryCount == 0)
  }

  test("capacity bound expunges oldest entries") {
    starCatalog()
    val cache = freshCache(maxEntries = 3)
    (1 to 5).foreach { n =>
      cache.getOrCompute(
        spark.sql(s"SELECT COUNT(*) AS c FROM store_sales WHERE ss_quantity > $n"), snapA)
    }
    assert(cache.entryCount <= 3)
  }

  test("thundering herd: concurrent identical queries compute once") {
    starCatalog()
    val cache = freshCache()
    val pool = Executors.newFixedThreadPool(4)
    try {
      val futures = (1 to 4).map { _ =>
        pool.submit(new java.util.concurrent.Callable[Boolean] {
          override def call(): Boolean = cache.getOrCompute(
            spark.sql("SELECT SUM(ss_sales_price) AS s FROM store_sales"), snapA)._2
        })
      }
      val hits = futures.map(_.get()).count(identity)
      // at most one runner misses to fill; the rest hit or wait on the
      // pending entry (also counted as hits once the result lands)
      assert(cache.misses.get == 1, s"herd recomputed: misses=${cache.misses.get}")
      assert(hits >= 1)
    } finally pool.shutdown()
  }

  test("a failed leader does not take down the query waiting on its entry") {
    starCatalog()
    val cache = freshCache()
    FailingLeader.cache = cache
    FailingLeader.armed.set(true)
    val passOrFail = udf((v: Long) => FailingLeader.passOrFail(v))
    def q = spark.table("store_sales").agg(sum(passOrFail(col("ss_quantity"))).as("s"))
    val expected = spark.table("store_sales").agg(sum(col("ss_quantity")).as("s")).collect().toSeq
    def run(): Callable[(Seq[org.apache.spark.sql.Row], Boolean)] = () => cache.getOrCompute(q, snapA)
    val pool = Executors.newFixedThreadPool(2)
    try {
      val leader = pool.submit(run())
      assert(FailingLeader.entered.await(60, TimeUnit.SECONDS), "the leader's query never started")
      val waiter = pool.submit(run())
      intercept[ExecutionException](leader.get())
      val (rows, hit) = waiter.get()
      assert(rows == expected && !hit)
      assert(cache.herdWaits.get == 1 && cache.misses.get == 2 && cache.hits.get == 0)
      // no pending entry is left behind: the next query leads without
      // waiting, and caches its result for the one after
      assert(cache.getOrCompute(q, snapA) == ((expected, false)))
      assert(cache.getOrCompute(q, snapA) == ((expected, true)))
      assert(cache.herdWaits.get == 1)
    } finally pool.shutdown()
  }
}

/** The first row the armed query evaluates blocks until another query waits
  * on the same result-cache entry, then throws; every later row passes. An
  * object, so the Spark tasks share it instead of copies of it. */
private object FailingLeader {
  @volatile var cache: ResultCache = _
  val armed = new AtomicBoolean(false)
  val entered = new CountDownLatch(1)

  def passOrFail(v: Long): Long = {
    if (armed.compareAndSet(true, false)) {
      entered.countDown()
      val deadline = System.nanoTime() + TimeUnit.SECONDS.toNanos(60)
      while (cache.herdWaits.get < 1 && System.nanoTime() < deadline) Thread.sleep(5)
      throw new IllegalStateException("leader fails")
    }
    v
  }
}
