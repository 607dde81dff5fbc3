package repro.cluster

import repro.SparkSpec
import repro.util.{Rng, VecOps}

/** Cannot-link (constrained) UPGMA: `Hac.upgma` with a group per point, as
  * holistic column alignment runs it with one group per table.
  */
class ConstrainedHacSpec extends SparkSpec {

  private def dm(pts: Seq[Array[Double]]) =
    Hac.distMatrix(pts.toIndexedSeq, VecOps.euclidean)

  /** (k, labels) for every cut the forest allows, from n down to minK. */
  private def levels(d: Hac.Dist, group: Array[Int]): Vector[(Int, Array[Int])] = {
    val den = Hac.upgma(d, group)
    (den.n to math.max(1, den.minK) by -1).map(k => (k, den.cut(k))).toVector
  }

  /** Labels renumbered in order of first appearance. */
  private def canonical(labels: Array[Int]): Vector[Int] = {
    val ids = scala.collection.mutable.HashMap.empty[Int, Int]
    labels.toVector.map(l => ids.getOrElseUpdate(l, ids.size))
  }

  /** Naive constrained UPGMA: repeatedly merge the closest pair of clusters
    * that share no group, average linkage read from `d` itself. The
    * partition after every merge, starting from all singletons.
    */
  private def reference(d: Hac.Dist, group: Array[Int]): Vector[Vector[Int]] = {
    val n = d.n
    var clusters = Vector.tabulate(n)(Vector(_))
    def linkage(a: Vector[Int], b: Vector[Int]): Double =
      a.map(i => b.map(d(i, _)).sum).sum / (a.size * b.size)
    def compatible(a: Vector[Int], b: Vector[Int]): Boolean =
      a.forall(i => b.forall(j => group(i) != group(j)))
    def partition(): Vector[Int] = {
      val labels = new Array[Int](n)
      clusters.zipWithIndex.foreach { case (c, ci) => c.foreach(labels(_) = ci) }
      canonical(labels)
    }
    val out = Vector.newBuilder[Vector[Int]]
    out += partition()
    var merged = true
    while (merged) {
      val pairs = for {
        a <- clusters.indices
        b <- (a + 1) until clusters.size
        if compatible(clusters(a), clusters(b))
      } yield (linkage(clusters(a), clusters(b)), a, b)
      merged = pairs.nonEmpty
      if (merged) {
        val (_, a, b) = pairs.minBy(_._1)
        clusters = clusters.updated(a, clusters(a) ++ clusters(b)).patch(b, Nil, 1)
        out += partition()
      }
    }
    out.result()
  }

  /** Group layouts: all distinct, tables of 1–4 points, two or three
    * groups, and about n/2 random groups.
    */
  private def layouts(n: Int, rng: Rng): Vector[Array[Int]] = {
    val tables = Iterator.from(0).flatMap(t => Iterator.fill(1 + rng.nextInt(4))(t)).take(n).toArray
    Vector(
      Array.tabulate(n)(identity),
      tables,
      Array.fill(n)(rng.nextInt(2 + rng.nextInt(2))),
      Array.fill(n)(rng.nextInt(n / 2 + 1)),
    )
  }

  test("never merges points of the same group") {
    // Two close points share a group: they must stay apart at every level.
    val pts = Seq(Array(0.0), Array(0.01), Array(5.0))
    levels(dm(pts), Array(1, 1, 2)).foreach { case (_, labels) => assert(labels(0) != labels(1)) }
  }

  test("unconstrained groups merge down to one cluster") {
    val pts = Seq(Array(0.0), Array(1.0), Array(2.0))
    assert(Hac.upgma(dm(pts), Array(1, 2, 3)).minK == 1)
  }

  test("levels run from n down to minK") {
    val pts = Seq(Array(0.0), Array(1.0), Array(2.0), Array(3.0))
    val ls = levels(dm(pts), Array(1, 2, 3, 4))
    assert(ls.map(_._1) == Vector(4, 3, 2, 1))
    ls.foreach { case (k, labels) => assert(labels.distinct.length == k) }
  }

  test("closest compatible pair merges first") {
    val pts = Seq(Array(0.0), Array(0.1), Array(5.0), Array(9.0))
    val at3 = Hac.upgma(dm(pts), Array(1, 2, 3, 4)).cut(3)
    assert(at3(0) == at3(1))
  }

  test("constraint forces the second-best merge") {
    val pts = Seq(Array(0.0), Array(0.1), Array(0.3))
    // 0 and 1 are closest but same group; 1-2 is next (0.2) vs 0-2 (0.3).
    val at2 = Hac.upgma(dm(pts), Array(7, 7, 8)).cut(2)
    assert(at2(1) == at2(2) && at2(0) != at2(1))
  }

  test("merged clusters accumulate group constraints") {
    // After merging {a(g1), b(g2)}, the cluster can no longer take g1 or g2.
    val pts = Seq(Array(0.0), Array(0.1), Array(0.2), Array(10.0))
    // Point 2 (group 1) can never join a cluster containing point 0 (group 1).
    levels(dm(pts), Array(1, 2, 1, 3)).foreach { case (_, labels) => assert(labels(0) != labels(2)) }
  }

  test("labels at every level are contiguous from 0") {
    val pts = Seq(Array(0.0), Array(2.0), Array(4.0), Array(6.0))
    levels(dm(pts), Array(1, 2, 3, 4)).foreach { case (k, labels) =>
      assert(labels.toSet == (0 until k).toSet)
    }
  }

  test("empty input yields empty result") {
    val den = Hac.upgma(dm(Nil), Array.empty)
    assert(den.merges.isEmpty && den.minK == 0)
  }

  test("fully constrained input cannot merge at all") {
    val pts = Seq(Array(0.0), Array(0.1))
    assert(Hac.upgma(dm(pts), Array(5, 5)).minK == 2)
  }

  test("every cut equals the naive constrained UPGMA on tie-free inputs") {
    (1 to 40).foreach { seed =>
      val rng = new Rng(seed)
      val n = 2 + rng.nextInt(20)
      val d = dm(Vector.fill(n)(Array.fill(3)(rng.nextGaussian())))
      layouts(n, rng).foreach { group =>
        val den = Hac.upgma(d, group)
        val ref = reference(d, group)
        assert(den.minK == n - (ref.length - 1), s"seed=$seed n=$n")
        (math.max(1, den.minK) to n).foreach { k =>
          assert(canonical(den.cut(k)) == ref(n - k), s"seed=$seed n=$n k=$k")
        }
      }
    }
  }

  test("tie-heavy inputs keep groups apart and cut to exactly k clusters") {
    (1 to 40).foreach { seed =>
      val rng = new Rng(seed)
      val n = 2 + rng.nextInt(20)
      // Points on a 3×3 grid: exact duplicates and equal distances abound.
      val d = dm(Vector.fill(n)(Array(rng.nextInt(3).toDouble, rng.nextInt(3).toDouble)))
      layouts(n, rng).foreach { group =>
        val den = Hac.upgma(d, group)
        assert(den.minK >= group.groupBy(identity).values.map(_.length).max)
        (math.max(1, den.minK) to n).foreach { k =>
          val labels = den.cut(k)
          assert(labels.distinct.length == k, s"seed=$seed n=$n k=$k")
          for (i <- 0 until n; j <- (i + 1) until n if group(i) == group(j))
            assert(labels(i) != labels(j), s"seed=$seed n=$n k=$k points $i, $j")
        }
      }
    }
  }
}
