package repro.acid

import org.apache.spark.sql.functions._

import repro.SparkSpec
import AcidLayout._

class CompactorSpec extends SparkSpec with AcidFixture {

  private def deltaCount(t: AcidTable): Int =
    t.storeDirs().map(d => AcidLayout.list(d).count(_.isInstanceOf[DeltaDir])).sum
  private def deleteDeltaCount(t: AcidTable): Int =
    t.storeDirs().map(d => AcidLayout.list(d).count(_.isInstanceOf[DeleteDeltaDir])).sum
  private def baseCount(t: AcidTable): Int =
    t.storeDirs().map(d => AcidLayout.list(d).count(_.isInstanceOf[BaseDir])).sum

  private def seedInserts(name: String, batches: Int) = {
    val (c, t) = freshTable(name)
    for (b <- 1 to batches) {
      val txn = c.txns.openTxn()
      t.insert(txn, rowsDf((1L to 20L).map(i => (b * 1000 + i, i.toDouble, s"b$b"))))
      c.txns.commit(txn)
    }
    (c, t)
  }

  test("minor compaction merges delta directories and preserves results") {
    val (_, t) = seedInserts("t_minor", 4)
    val before = collectKv(t.readCurrent())
    assert(deltaCount(t) == 4)
    new Compactor(t).minorCompact()
    assert(deltaCount(t) == 1, "deltas not merged")
    assert(collectKv(t.readCurrent()) == before, "minor compaction changed results")
  }

  test("minor compaction also merges delete deltas") {
    val (c, t) = seedInserts("t_minor_del", 2)
    for (k <- Seq(1001L, 2001L)) {
      val txn = c.txns.openTxn(); t.delete(txn, col("k") === k); c.txns.commit(txn)
    }
    val before = collectKv(t.readCurrent())
    assert(deleteDeltaCount(t) == 2)
    new Compactor(t).minorCompact()
    assert(deleteDeltaCount(t) == 1)
    assert(collectKv(t.readCurrent()) == before)
  }

  test("major compaction folds everything into a new base") {
    val (c, t) = seedInserts("t_major", 3)
    val txn = c.txns.openTxn(); t.delete(txn, col("k") === 1001L); c.txns.commit(txn)
    val before = collectKv(t.readCurrent())
    new Compactor(t).majorCompact()
    assert(baseCount(t) == 1 && deltaCount(t) == 0 && deleteDeltaCount(t) == 0)
    assert(collectKv(t.readCurrent()) == before, "major compaction changed results")
  }

  test("major compaction physically drops aborted rows and purges history") {
    val (c, t) = seedInserts("t_major_abort", 1)
    val bad = c.txns.openTxn()
    t.insert(bad, rowsDf(Seq((9999L, 9.0, "junk"))))
    c.txns.abort(bad)
    assert(c.txns.writeIdList("t_major_abort", c.txns.txnList()).invalid.nonEmpty)
    new Compactor(t).majorCompact()
    // aborted write bookkeeping gone, data correct
    assert(c.txns.writeIdList("t_major_abort", c.txns.txnList()).invalid.isEmpty,
      "aborted WriteIds still burden every snapshot")
    assert(!collectKv(t.readCurrent()).exists(_._1 == 9999L))
  }

  test("compaction horizon stops below open transactions") {
    val (c, t) = seedInserts("t_horizon", 2)
    val openTxn = c.txns.openTxn()
    t.insert(openTxn, rowsDf(Seq((5555L, 5.0, "pending"))))
    new Compactor(t).majorCompact()
    // the open txn's delta must survive compaction
    assert(deltaCount(t) == 1, "compactor folded an open transaction's delta")
    c.txns.commit(openTxn)
    assert(collectKv(t.readCurrent()).exists(_._1 == 5555L))
  }

  test("reads remain correct straight after compaction for a pre-compaction snapshot") {
    val (c, t) = seedInserts("t_snap_compat", 3)
    val snap = t.currentSnapshot()
    new Compactor(t).majorCompact()
    assert(t.read(snap).count() == 60, "old snapshot broken by compaction")
  }

  test("shouldCompact triggers on the delta-count threshold") {
    val (_, t) = seedInserts("t_trigger", 3)
    val comp = new Compactor(t)
    assert(comp.shouldCompact(minDeltas = 3))
    assert(!comp.shouldCompact(minDeltas = 10))
    comp.majorCompact()
    assert(!comp.shouldCompact(minDeltas = 3))
  }

  test("partitioned table compaction works per partition") {
    import org.apache.spark.sql.types._
    val pSchema = StructType(Seq(
      StructField("k", LongType), StructField("v", DoubleType), StructField("p", IntegerType)))
    val (c, t) = freshTable("t_part_compact", Some("p"), pSchema)
    import spark.implicits._
    for (b <- 1 to 3) {
      val txn = c.txns.openTxn()
      t.insert(txn, Seq((b.toLong, b.toDouble, 1), (b + 10L, b.toDouble, 2)).toDF("k", "v", "p"))
      c.txns.commit(txn)
    }
    val before = t.readCurrent().select("k").collect().map(_.getLong(0)).toSet
    new Compactor(t).majorCompact()
    assert(baseCount(t) == 2, "expected one base per partition")
    assert(t.readCurrent().select("k").collect().map(_.getLong(0)).toSet == before)
  }

  test("second major compaction after more writes advances the base") {
    val (c, t) = seedInserts("t_major2", 2)
    val comp = new Compactor(t)
    comp.majorCompact()
    val txn = c.txns.openTxn()
    t.insert(txn, rowsDf(Seq((7777L, 7.0, "late"))))
    c.txns.commit(txn)
    comp.majorCompact()
    assert(baseCount(t) == 1 && deltaCount(t) == 0)
    assert(collectKv(t.readCurrent()).exists(_._1 == 7777L))
  }
}
