package repro.util

import org.scalatest.funsuite.AnyFunSuite

class VecOpsSpec extends AnyFunSuite {
  private val eps = 1e-9

  test("dot of orthogonal vectors is 0") {
    assert(VecOps.dot(Array(1.0, 0.0), Array(0.0, 1.0)) == 0.0)
  }

  test("dot matches manual computation") {
    assert(math.abs(VecOps.dot(Array(1.0, 2.0, 3.0), Array(4.0, 5.0, 6.0)) - 32.0) < eps)
  }

  test("dot rejects dimension mismatch") {
    intercept[IllegalArgumentException](VecOps.dot(Array(1.0), Array(1.0, 2.0)))
  }

  test("norm of unit vector is 1") {
    assert(math.abs(VecOps.norm(Array(0.0, 1.0, 0.0)) - 1.0) < eps)
  }

  test("cosineSim of identical vectors is 1") {
    val v = Array(0.3, -0.2, 0.9)
    assert(math.abs(VecOps.cosineSim(v, v) - 1.0) < eps)
  }

  test("cosineSim of opposite vectors is -1") {
    val v = Array(1.0, 2.0)
    assert(math.abs(VecOps.cosineSim(v, v.map(-_)) + 1.0) < eps)
  }

  test("cosineSim with zero vector is 0") {
    assert(VecOps.cosineSim(Array(0.0, 0.0), Array(1.0, 1.0)) == 0.0)
    assert(VecOps.cosineSim(Array(0.0, 0.0), Array(0.0, 0.0)) == 0.0)
  }

  test("cosineDist is 0 for a vector with itself") {
    val v = Array(0.5, 0.1)
    assert(math.abs(VecOps.cosineDist(v, v)) < eps)
    // The zero vector too, exactly, and as two distinct arrays; it stays at
    // distance 1 from every non-zero vector.
    val z = Array(0.0, 0.0)
    assert(VecOps.cosineDist(z, z) == 0.0)
    assert(VecOps.cosineDist(z, Array(-0.0, 0.0)) == 0.0)
    assert(VecOps.cosineDist(z, v) == 1.0 && VecOps.cosineDist(v, z) == 1.0)
  }

  test("cosineDist is symmetric") {
    val a = Array(1.0, 2.0, 3.0); val b = Array(-1.0, 0.5, 2.0)
    assert(math.abs(VecOps.cosineDist(a, b) - VecOps.cosineDist(b, a)) < eps)
  }

  test("cosineDist given the norms equals the two-argument form bit for bit") {
    val rng = new Rng(23)
    def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
    val random = Vector.fill(200)(Array.fill(16)(rng.nextGaussian()))
    // Zero vectors with +0.0 and -0.0 entries, a vector with -0.0 entries
    // among non-zero ones, copies (distance exactly 0) and a negation.
    val zeros = Vector(new Array[Double](16), Array.fill(16)(-0.0), Array.tabulate(16)(i => if (i % 2 == 0) -0.0 else 0.0))
    val signed = Array.tabulate(16)(i => if (i % 3 == 0) -0.0 else rng.nextGaussian())
    val vs = random ++ zeros ++ Vector(signed, signed.clone(), random(0).clone(), random(0).map(-_))
    for (a <- vs; b <- vs) {
      val two = VecOps.cosineDist(a, b)
      assert(bits(VecOps.cosineDist(a, VecOps.norm(a), b, VecOps.norm(b))) == bits(two))
    }
    assert(VecOps.cosineDist(zeros(1), 0.0, zeros(2), -0.0) == 0.0)
    assert(VecOps.cosineDist(zeros(1), 0.0, signed, VecOps.norm(signed)) == 1.0)
  }

  test("euclidean matches hand computation") {
    assert(math.abs(VecOps.euclidean(Array(0.0, 0.0), Array(3.0, 4.0)) - 5.0) < eps)
  }

  test("addInPlace with weight") {
    val a = Array(1.0, 1.0)
    VecOps.addInPlace(a, Array(2.0, 4.0), 0.5)
    assert(a.toSeq == Seq(2.0, 3.0))
  }

  test("normalize yields unit norm") {
    val n = VecOps.norm(VecOps.normalize(Array(3.0, 4.0)))
    assert(math.abs(n - 1.0) < eps)
  }

  test("normalize keeps zero vector zero") {
    assert(VecOps.normalize(Array(0.0, 0.0)).toSeq == Seq(0.0, 0.0))
  }

  private def bits(v: Array[Double]) = v.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("normalize equals a.map(_ / norm) bit for bit, on zero, -0.0 and subnormal entries") {
    def reference(a: Array[Double]) = { val n = VecOps.norm(a); if (n == 0.0) a.clone() else a.map(_ / n) }
    val rng = new Rng(29)
    val tiny = java.lang.Double.MIN_VALUE
    val vs = Vector.fill(100)(Array.fill(1 + rng.nextInt(70))(rng.nextGaussian())) ++ Vector(
      Array.empty[Double], new Array[Double](8), Array.fill(8)(-0.0), Array(0.0, -0.0, 3.0, -0.0),
      Array(tiny, -tiny, 5 * tiny), // subnormal only: the norm underflows to 0
      Array(tiny, 1e-310, -2.5e-320, 1.0), Array(1e-160, 1e-160), Array(1e300, -1e300, 2.0))
    vs.foreach { a =>
      val copy = a.clone()
      val got = VecOps.normalize(a)
      assert(!(got eq a) && bits(a) == bits(copy))
      assert(bits(got) == bits(reference(a)), a.toSeq)
    }
  }

  test("weightedMean equals the zip form bit for bit on a List") {
    def reference(vs: Seq[Array[Double]], ws: Seq[Double]) = {
      val total = ws.sum
      val acc = new Array[Double](vs.head.length)
      vs.zip(ws).foreach { case (v, w) => VecOps.addInPlace(acc, v, w / total) }
      acc
    }
    val rng = new Rng(31)
    (1 to 60).foreach { n =>
      val vs = List.fill(n)(Array.fill(16)(rng.nextGaussian()))
      val ws = List.fill(n)(if (rng.nextInt(4) == 0) 0.0 else rng.nextDouble() * 3)
      val ws1 = if (ws.sum > 0) ws else 1.0 :: ws.tail
      assert(bits(VecOps.weightedMean(vs, ws1)) == bits(reference(vs, ws1)))
    }
  }

  test("mean averages element-wise") {
    val m = VecOps.mean(Seq(Array(1.0, 3.0), Array(3.0, 5.0)))
    assert(m.toSeq == Seq(2.0, 4.0))
  }

  test("mean of empty set rejected") {
    intercept[IllegalArgumentException](VecOps.mean(Seq.empty))
  }

  test("weightedMean with equal weights equals mean") {
    val vs = Seq(Array(1.0, 0.0), Array(3.0, 2.0))
    val wm = VecOps.weightedMean(vs, Seq(1.0, 1.0))
    assert(wm.toSeq == VecOps.mean(vs).toSeq)
  }

  test("weightedMean honors weights") {
    val wm = VecOps.weightedMean(Seq(Array(0.0), Array(10.0)), Seq(1.0, 3.0))
    assert(math.abs(wm(0) - 7.5) < eps)
  }

  test("medoidIndex picks the central element") {
    val pts = IndexedSeq(Array(0.0), Array(1.0), Array(2.0), Array(10.0))
    assert(VecOps.medoidIndex(pts, VecOps.euclidean) == 1)
  }

  test("medoidIndex of singleton is 0") {
    assert(VecOps.medoidIndex(IndexedSeq(Array(5.0)), VecOps.euclidean) == 0)
  }
}
