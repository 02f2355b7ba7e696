package perfbench

import org.scalatest.funsuite.AnyFunSuite

class AcidModelSpec extends AnyFunSuite {
  import AcidMixedWorkload.{amountOf, groupOf}

  private def rows(from: Long, n: Int) = (from until from + n).map(id => (id, groupOf(id), amountOf(id)))

  test("the serial model follows a scripted history") {
    val m = new AcidModel
    m.insert(rows(0, 10))                         // ids 0..9, amount = id
    assert(m.aggregate == ((10L, 45L, 45L)))
    m.update(2, 5, 7)                             // ids 2, 3, 4 gain 7
    assert(m.aggregate == ((10L, 66L, 45L)))
    m.delete(8, 12)                               // ids 8, 9 (10, 11 do not exist)
    assert(m.aggregate == ((8L, 49L, 28L)))
    m.update(8, 10, 100)                          // deleted rows stay deleted
    assert(m.aggregate == ((8L, 49L, 28L)))
    // MERGE: id 7 matches (amount 7 -> 70, keeps its group), 20 is new
    m.merge(Seq((7L, 5, 70L), (20L, groupOf(20), 1L)))
    assert(m.aggregate == ((9L, 113L, 48L)))
    assert(m.rows(7) == ((groupOf(7), 70L)))
    assert(m.rows(20) == ((groupOf(20), 1L)))
  }

  test("inserting an existing id is rejected") {
    val m = new AcidModel
    m.insert(rows(0, 3))
    assertThrows[IllegalArgumentException](m.insert(rows(2, 1)))
  }

  test("one cycle of the stream has the mix of the workload definition") {
    val c = AcidMixedWorkload.Cycle
    val share = c.groupBy(identity).map { case (op, xs) => op -> xs.size.toDouble / c.size }
    assert(c.size == 20)
    assert(share == Map("read" -> 0.40, "insert" -> 0.20, "update" -> 0.15, "delete" -> 0.10, "merge" -> 0.15))
  }
}
