package repro.cluster

import repro.SparkSpec
import repro.util.{Rng, VecOps}

class HacSpec extends SparkSpec {

  private def blob(center: Double, n: Int, rng: Rng): Vector[Array[Double]] =
    Vector.fill(n)(Array(center + rng.nextGaussian() * 0.05, center + rng.nextGaussian() * 0.05))

  /** Labels of a k-cluster UPGMA cut over points, k capped at n. */
  private def clusterLabels[A](points: IndexedSeq[A], k: Int, dist: (A, A) => Double): Array[Int] =
    Hac.upgma(Hac.distMatrix(points, dist)).cut(math.min(k, points.length))

  test("distMatrix is symmetric with zero diagonal") {
    val pts = IndexedSeq(Array(0.0), Array(1.0), Array(3.0))
    val d = Hac.distMatrix(pts, VecOps.euclidean)
    assert(d(0, 0) == 0.0 && d(1, 1) == 0.0 && d(2, 2) == 0.0)
    assert(d(0, 1) == d(1, 0) && d(0, 2) == d(2, 0) && d(1, 2) == d(2, 1))
    assert(d(0, 1) == 1.0 && d(0, 2) == 3.0 && d(1, 2) == 2.0)
  }

  test("upgma on empty and singleton inputs") {
    assert(Hac.upgma(Hac.distMatrix(Vector.empty[Array[Double]], VecOps.euclidean)).merges.isEmpty)
    assert(Hac.upgma(Hac.distMatrix(Vector(Array(0.0)), VecOps.euclidean)).merges.isEmpty)
  }

  test("upgma produces n-1 merges") {
    val pts = (1 to 10).map(i => Array(i.toDouble)).toIndexedSeq
    val den = Hac.upgma(Hac.distMatrix(pts, VecOps.euclidean))
    assert(den.merges.size == 9)
  }

  test("cut(1) puts everything in one cluster") {
    val pts = (1 to 8).map(i => Array(i.toDouble)).toIndexedSeq
    val den = Hac.upgma(Hac.distMatrix(pts, VecOps.euclidean))
    assert(den.cut(1).toSet == Set(0))
  }

  test("cut(n) gives all singletons") {
    val pts = (1 to 6).map(i => Array(i.toDouble)).toIndexedSeq
    val den = Hac.upgma(Hac.distMatrix(pts, VecOps.euclidean))
    assert(den.cut(6).distinct.length == 6)
  }

  test("cut rejects out-of-range k") {
    val pts = (1 to 4).map(i => Array(i.toDouble)).toIndexedSeq
    val den = Hac.upgma(Hac.distMatrix(pts, VecOps.euclidean))
    intercept[IllegalArgumentException](den.cut(0))
    intercept[IllegalArgumentException](den.cut(5))
  }

  test("cut rejects k below minK") {
    val pts = (1 to 5).map(i => Array(i.toDouble)).toIndexedSeq
    // Three points of group 0 can end in no fewer than three clusters.
    val den = Hac.upgma(Hac.distMatrix(pts, VecOps.euclidean), Array(0, 0, 0, 1, 2))
    assert(den.minK == 3)
    intercept[IllegalArgumentException](den.cut(2))
    intercept[IllegalArgumentException](den.cut(1))
    assert(den.cut(3).distinct.length == 3)
  }

  test("two well-separated blobs are recovered at k=2") {
    val rng = new Rng(1)
    val pts = blob(0.0, 20, rng) ++ blob(10.0, 20, rng)
    val labels = clusterLabels(pts, 2, VecOps.euclidean)
    assert(labels.take(20).toSet.size == 1)
    assert(labels.drop(20).toSet.size == 1)
    assert(labels(0) != labels(39))
  }

  test("four blobs are recovered at k=4") {
    val rng = new Rng(2)
    val pts = Vector(0.0, 5.0, 10.0, 15.0).flatMap(c => blob(c, 10, rng))
    val labels = clusterLabels(pts, 4, VecOps.euclidean)
    val groups = labels.grouped(10).map(_.toSet).toVector
    assert(groups.forall(_.size == 1))
    assert(groups.flatten.toSet.size == 4)
  }

  test("merge heights are monotone after sorting (UPGMA reducibility)") {
    val rng = new Rng(3)
    val pts = blob(0.0, 15, rng) ++ blob(3.0, 15, rng)
    val den = Hac.upgma(Hac.distMatrix(pts, VecOps.euclidean))
    val hs = den.merges.map(_.height).sorted
    assert(hs.zip(hs.tail).forall { case (a, b) => a <= b })
  }

  test("clusterLabels caps k at n") {
    val pts = IndexedSeq(Array(0.0), Array(1.0))
    val labels = clusterLabels(pts, 10, VecOps.euclidean)
    assert(labels.distinct.length == 2)
  }

  test("labels are contiguous from 0") {
    val rng = new Rng(4)
    val pts = blob(0.0, 12, rng) ++ blob(4.0, 12, rng) ++ blob(8.0, 12, rng)
    val labels = clusterLabels(pts, 3, VecOps.euclidean)
    assert(labels.toSet == Set(0, 1, 2))
  }

  test("deterministic across calls") {
    val rng = new Rng(5)
    val pts = blob(0.0, 10, rng) ++ blob(2.0, 10, rng)
    val a = clusterLabels(pts, 4, VecOps.euclidean).toSeq
    val b = clusterLabels(pts, 4, VecOps.euclidean).toSeq
    assert(a == b)
  }

  test("cosine distance works as the linkage metric") {
    val pts = IndexedSeq(Array(1.0, 0.0), Array(0.9, 0.1), Array(0.0, 1.0), Array(0.1, 0.9))
    val labels = clusterLabels(pts, 2, VecOps.cosineDist)
    assert(labels(0) == labels(1) && labels(2) == labels(3) && labels(0) != labels(2))
  }

  test("upgma handles duplicate points") {
    val pts = IndexedSeq(Array(1.0), Array(1.0), Array(5.0))
    val labels = clusterLabels(pts, 2, VecOps.euclidean)
    assert(labels(0) == labels(1) && labels(0) != labels(2))
  }
}
