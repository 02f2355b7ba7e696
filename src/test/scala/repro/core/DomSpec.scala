package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport

class DomSpec extends AnyFunSuite with PropSupport {

  private def gt(v: Double) = NumDom(v, false, Double.PositiveInfinity, true, None)
  private def ge(v: Double) = NumDom(v, true, Double.PositiveInfinity, true, None)
  private def between(lo: Double, hi: Double) = NumDom(lo, true, hi, true, None)
  private def inSet(vs: Double*) =
    NumDom(Double.NegativeInfinity, true, Double.PositiveInfinity, true, Some(vs.toSet))

  test("interval implication: tighter implies looser") {
    assert(gt(2018).implies(gt(2017)))
    assert(!gt(2016).implies(gt(2017)))
    assert(between(5, 10).implies(between(0, 100)))
    assert(!between(5, 200).implies(between(0, 100)))
  }

  test("boundary inclusivity matters") {
    assert(ge(2018).implies(gt(2017)))
    assert(!ge(2017).implies(gt(2017)), ">= 2017 does not imply > 2017")
    assert(gt(2017).implies(ge(2017)))
  }

  test("IN-set implies interval when all members inside") {
    assert(inSet(1, 2, 3).implies(between(0, 5)))
    assert(!inSet(1, 2, 9).implies(between(0, 5)))
  }

  test("Fig 4b: d_year=2018 AND d_moy IN (1,2,3) implies d_year>2017") {
    // the query's year constraint (equality = point interval)
    val qYear = between(2018, 2018)
    assert(qYear.implies(gt(2017)))
  }

  test("interval cannot imply a finite set") {
    assert(!between(1, 3).implies(inSet(1, 2, 3)))
  }

  test("a point interval implies an IN-set holding it; an interval minus an IN-set is the pieces between its points") {
    // the shape of a view's numeric `=`, which is a one-value IN-set
    assert(between(2018, 2018).implies(inSet(2018)))
    assert(!between(2018, 2019).implies(inSet(2018)))
    assert(gt(2016).subtract(inSet(2018, 2030, 2000)) == Seq(
      NumDom(2016, false, 2018, false, None),
      NumDom(2018, false, 2030, false, None),
      NumDom(2030, false, Double.PositiveInfinity, true, None)))
  }

  test("intersect narrows both bounds") {
    val x = gt(2016).intersect(between(2000, 2018))
    assert(x == NumDom(2016, false, 2018, true, None))
  }

  test("subtract: Fig 4c complement (query > 2016, view > 2017)") {
    val diff = gt(2016).subtract(gt(2017))
    assert(diff == Seq(NumDom(2016, false, 2017, true, None)),
      "missing slice must be 2016 < year <= 2017")
  }

  test("subtract with both bounds produces up to two pieces") {
    val diff = between(0, 100).subtract(between(40, 60))
    assert(diff == Seq(
      NumDom(0, true, 40, false, None),
      NumDom(60, false, 100, true, None)))
  }

  test("subtract of a superset is empty") {
    assert(between(50, 60).subtract(between(0, 100)).isEmpty)
  }

  test("subtract on IN-sets filters members") {
    val diff = inSet(1, 2, 3, 4).subtract(between(2, 3))
    assert(diff.map(_.inSet.get) == Seq(Set(1.0, 4.0)))
  }

  test("string domains: subset implication") {
    assert(StrDom(Set("a")).implies(StrDom(Set("a", "b"))))
    assert(!StrDom(Set("a", "c")).implies(StrDom(Set("a", "b"))))
  }

  test("mixed-type domains never imply each other") {
    assert(!StrDom(Set("a")).implies(gt(1)))
    assert(!gt(1).implies(StrDom(Set("a"))))
  }

  test("conjoin folds conjuncts per column") {
    val doms = Dom.conjoin(Seq(
      "x" -> between(0, 100),
      "x" -> gt(50),
      "s" -> StrDom(Set("hello")))).get
    assert(doms("x") == NumDom(50, false, 100, true, None))
    assert(doms("s") == StrDom(Set("hello")))
  }

  test("conjoin rejects mixed numeric/string constraints on one column") {
    assert(Dom.conjoin(Seq("x" -> between(0, 1), "x" -> StrDom(Set("a")))).isEmpty)
  }

  test("property: subtract pieces are disjoint from the subtrahend and within the minuend") {
    val genDom = for {
      lo <- Gen.chooseNum(-50, 50); w <- Gen.chooseNum(0, 50)
    } yield between(lo.toDouble, (lo + w).toDouble)
    checkProp(Prop.forAll(genDom, genDom) { (a, b) =>
      a.subtract(b).forall { piece =>
        val probes = Seq(piece.lo, piece.hi, (piece.lo + piece.hi) / 2).filter(piece.contains)
        probes.forall(v => a.contains(v) && !b.contains(v))
      }
    })
  }

  test("property: implication is transitive on intervals") {
    val genDom = for {
      lo <- Gen.chooseNum(-50, 50); w <- Gen.chooseNum(0, 50)
    } yield between(lo.toDouble, (lo + w).toDouble)
    checkProp(Prop.forAll(genDom, genDom, genDom) { (a, b, c) =>
      !(a.implies(b) && b.implies(c)) || a.implies(c)
    })
  }
}
