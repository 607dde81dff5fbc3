package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import repro.util.{Rng, VecOps}

class SilhouetteSpec extends AnyFunSuite {

  private def dm(pts: Seq[Array[Double]]) =
    Hac.distMatrix(pts.toIndexedSeq, VecOps.euclidean)

  test("perfect two-blob clustering scores near 1") {
    val rng = new Rng(1)
    val pts = Vector.fill(10)(Array(rng.nextGaussian() * 0.01)) ++
              Vector.fill(10)(Array(10.0 + rng.nextGaussian() * 0.01))
    val labels = Array.fill(10)(0) ++ Array.fill(10)(1)
    assert(Silhouette.score(dm(pts), labels) > 0.95)
  }

  test("random labels score poorly") {
    val rng = new Rng(2)
    val pts = Vector.fill(20)(Array(rng.nextGaussian()))
    val labels = Array.tabulate(20)(_ % 2)
    assert(Silhouette.score(dm(pts), labels) < 0.5)
  }

  test("single cluster is undefined (-1)") {
    val pts = Seq(Array(0.0), Array(1.0))
    assert(Silhouette.score(dm(pts), Array(0, 0)) == -1.0)
  }

  test("singleton clusters contribute zero") {
    val pts = Seq(Array(0.0), Array(5.0), Array(5.1))
    val s = Silhouette.score(dm(pts), Array(0, 1, 1))
    assert(s > 0.0) // the pair contributes positively, singleton zero
  }

  test("correct split scores above a merged mis-split") {
    val rng = new Rng(3)
    val a = Vector.fill(8)(Array(0.0 + rng.nextGaussian() * 0.05))
    val b = Vector.fill(8)(Array(4.0 + rng.nextGaussian() * 0.05))
    val pts = a ++ b
    val good = Array.fill(8)(0) ++ Array.fill(8)(1)
    val bad = Array.tabulate(16)(_ % 2)
    assert(Silhouette.score(dm(pts), good) > Silhouette.score(dm(pts), bad))
  }

  /** Silhouette from the definition, with one explicit loop per cluster. */
  private def reference(d: Hac.Dist, labels: Array[Int]): Double = {
    val clusters = labels.distinct.sorted
    if (clusters.length < 2) return -1.0
    var total = 0.0
    for (i <- labels.indices) {
      val own = labels(i)
      val ownSize = labels.count(_ == own)
      if (ownSize > 1) {
        var a = 0.0
        for (j <- labels.indices if j != i && labels(j) == own) a += d(i, j)
        a /= (ownSize - 1)
        var b = Double.MaxValue
        for (c <- clusters if c != own) {
          var sum = 0.0; var size = 0
          for (j <- labels.indices if labels(j) == c) { sum += d(i, j); size += 1 }
          b = math.min(b, sum / size)
        }
        val s = (b - a) / math.max(a, b)
        total += (if (s.isNaN) 0.0 else s)
      }
    }
    total / labels.length
  }

  test("score equals the per-cluster definition bit for bit") {
    val rng = new Rng(5)
    // Few distinct locations make duplicate points; label ids are drawn from
    // a range wider than the clusters used, so some ids stay unused.
    val random = Vector.fill(300) {
      val n = 2 + rng.nextInt(14)
      val locs = Vector.fill(1 + rng.nextInt(6))(Array(rng.nextGaussian(), rng.nextGaussian()))
      val pts = Vector.fill(n)(locs(rng.nextInt(locs.length)))
      val range = 1 + rng.nextInt(n + 2)
      (pts, Array.fill(n)(rng.nextInt(range)))
    }
    // All points equal: a = b = 0 for every point, the NaN path.
    val allEqual = (Vector.fill(4)(Array(1.0, 1.0)), Array(0, 0, 2, 2))
    (allEqual +: random).foreach { case (pts, labels) =>
      val d = dm(pts)
      val got = Silhouette.score(d, labels)
      val want = reference(d, labels)
      assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want),
        s"labels=${labels.mkString(",")}: $got vs $want")
    }
  }

  test("score rejects negative labels") {
    val pts = Seq(Array(0.0), Array(1.0), Array(2.0))
    intercept[IllegalArgumentException](Silhouette.score(dm(pts), Array(0, -1, 1)))
  }

  test("bestCut picks the true number of blobs") {
    val rng = new Rng(4)
    val pts = Vector(0.0, 6.0, 12.0).flatMap(c => Vector.fill(8)(Array(c + rng.nextGaussian() * 0.1)))
    val d = dm(pts)
    assert(Silhouette.bestCut(d, Hac.upgma(d), 2 to 8) == 3)
  }

  test("bestCut rejects empty candidate list") {
    val empty = dm(Nil)
    intercept[IllegalArgumentException](Silhouette.bestCut(empty, Hac.upgma(empty), Nil))
  }

  test("bestCut prefers smaller k on ties") {
    // Four equidistant points: every cut with >= 2 clusters scores exactly 0.
    val d = Hac.distMatrix(0 until 4, (_: Int, _: Int) => 1.0)
    val den = Hac.upgma(d)
    assert(Silhouette.score(d, den.cut(2)) == 0.0 && Silhouette.score(d, den.cut(3)) == 0.0)
    assert(Silhouette.bestCut(d, den, Seq(3, 2)) == 2)
  }
}
