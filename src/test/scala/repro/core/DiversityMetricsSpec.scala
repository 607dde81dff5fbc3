package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.util.{Rng, VecOps}

class DiversityMetricsSpec extends AnyFunSuite {

  private val q = Vector(Array(1.0, 0.0), Array(0.0, 1.0))
  private val sel = Vector(Array(-1.0, 0.0), Array(0.0, -1.0))

  test("averageDiversity matches hand computation") {
    // cross: δ(q1,t1)=2, δ(q1,t2)=1, δ(q2,t1)=1, δ(q2,t2)=2; within: δ(t1,t2)=1.
    val v = DiversityMetrics.diversity(q, sel).avg
    assert(math.abs(v - 7.0 / 4.0) < 1e-9)
  }

  test("minDiversity matches hand computation") {
    assert(math.abs(DiversityMetrics.diversity(q, sel).min - 1.0) < 1e-9)
  }

  test("identical selected tuples give zero min diversity") {
    val dup = Vector(Array(1.0, 0.0), Array(1.0, 0.0))
    assert(math.abs(DiversityMetrics.diversity(q, dup).min) < 1e-9)
  }

  test("a selected tuple equal to a query tuple gives zero min diversity") {
    val v = DiversityMetrics.diversity(q, Vector(Array(1.0, 0.0), Array(-1.0, 0.0))).min
    assert(math.abs(v) < 1e-9)
  }

  test("empty selection is rejected") {
    intercept[IllegalArgumentException](DiversityMetrics.diversity(q, Vector.empty))
  }

  test("single selected tuple with no query needs at least one distance") {
    intercept[IllegalArgumentException](
      DiversityMetrics.diversity(Vector.empty, Vector(Array(1.0))))
  }

  // Eq. (1) and Eq. (2) as two separate loops over the distance set, one
  // measure each: the reference the one-pass `diversity` must equal bit for bit.
  private def refAverage(query: Seq[Array[Double]], selected: Seq[Array[Double]]): Double = {
    val n = query.size; val k = selected.size
    var cross = 0.0
    query.foreach(q => selected.foreach(t => cross += VecOps.cosineDist(q, t)))
    var within = 0.0
    var i = 0
    while (i < k) {
      var j = i + 1
      while (j < k) { within += VecOps.cosineDist(selected(i), selected(j)); j += 1 }
      i += 1
    }
    (cross + within) / (n + k)
  }

  private def refMin(query: Seq[Array[Double]], selected: Seq[Array[Double]]): Double = {
    var m = Double.MaxValue
    query.foreach(q => selected.foreach(t => m = math.min(m, VecOps.cosineDist(q, t))))
    var i = 0
    while (i < selected.size) {
      var j = i + 1
      while (j < selected.size) { m = math.min(m, VecOps.cosineDist(selected(i), selected(j))); j += 1 }
      i += 1
    }
    m
  }

  test("diversity is bit-identical to separate Eq. (1) and Eq. (2) loops") {
    val bits = java.lang.Double.doubleToRawLongBits _
    val rng = new Rng(21)
    val cases = (0 until 200).map { c =>
      val dim = 2 + rng.nextInt(7)
      val pool = Vector.fill(4 + rng.nextInt(8))(Array.fill(dim)(rng.nextGaussian()))
      // Draw from a small pool so exact duplicates, within the selection and
      // between query and selection, are common.
      def draw(m: Int) = Vector.fill(m)(pool(rng.nextInt(pool.size)).clone())
      c % 4 match {
        case 0 => (draw(1 + rng.nextInt(6)), draw(1))                     // k = 1
        case 1 => (Vector.empty[Array[Double]], draw(2 + rng.nextInt(8))) // empty query
        case _ => (draw(1 + rng.nextInt(8)), draw(2 + rng.nextInt(10)))
      }
    }
    cases.foreach { case (qv, sv) =>
      val d = DiversityMetrics.diversity(qv, sv)
      assert(bits(d.avg) == bits(refAverage(qv, sv)), s"avg n=${qv.size} k=${sv.size}")
      assert(bits(d.min) == bits(refMin(qv, sv)), s"min n=${qv.size} k=${sv.size}")
    }
    assert(cases.count { case (qv, sv) => DiversityMetrics.diversity(qv, sv).min < 1e-12 } > 50)
  }
}
