package repro

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.DiversifyTuples
import repro.core.DiversifyTuples.EmbTuple
import repro.util.{Rng, VecOps}

/** Property-based invariants for the numeric core, driven by scalacheck
  * generators sampled deterministically (the scalatest/scalacheck bridge
  * artifact is not in the offline cache, so sampling is done directly).
  */
class PropertiesSpec extends AnyFunSuite {

  private def samples[A](g: Gen[A], n: Int = 60): Seq[A] =
    (0 until n).flatMap(i => g.apply(Gen.Parameters.default, Seed(1234L + i)))

  private val vecGen: Gen[Array[Double]] =
    Gen.chooseNum(2, 8).flatMap(d => Gen.listOfN(d, Gen.chooseNum(-5.0, 5.0)).map(_.toArray))

  private val vecPairGen: Gen[(Array[Double], Array[Double])] =
    for {
      d <- Gen.chooseNum(2, 8)
      a <- Gen.listOfN(d, Gen.chooseNum(-5.0, 5.0))
      b <- Gen.listOfN(d, Gen.chooseNum(-5.0, 5.0))
    } yield (a.toArray, b.toArray)

  test("property: cosine distance is symmetric and in [0, 2]") {
    samples(vecPairGen).foreach { case (a, b) =>
      val d1 = VecOps.cosineDist(a, b); val d2 = VecOps.cosineDist(b, a)
      assert(math.abs(d1 - d2) < 1e-9)
      assert(d1 >= -1e-9 && d1 <= 2.0 + 1e-9)
    }
  }

  test("property: euclidean satisfies the triangle inequality") {
    samples(Gen.listOfN(3, Gen.listOfN(4, Gen.chooseNum(-5.0, 5.0)))).foreach { pts =>
      val Seq(a, b, c) = pts.map(_.toArray)
      assert(VecOps.euclidean(a, c) <= VecOps.euclidean(a, b) + VecOps.euclidean(b, c) + 1e-9)
    }
  }

  test("property: normalize is idempotent on non-zero vectors") {
    samples(vecGen).filter(v => VecOps.norm(v) > 1e-6).foreach { v =>
      val n1 = VecOps.normalize(v)
      val n2 = VecOps.normalize(n1)
      assert(n1.zip(n2).forall { case (x, y) => math.abs(x - y) < 1e-9 })
    }
  }

  test("property: mean is within the coordinate-wise min/max envelope") {
    samples(Gen.zip(Gen.chooseNum(1, 6), Gen.chooseNum(1L, 1000L))).foreach { case (n, seed) =>
      val rng = new Rng(seed)
      val vs = Vector.fill(n)(Array.fill(4)(rng.nextGaussian()))
      val m = VecOps.mean(vs)
      (0 until 4).foreach { i =>
        assert(m(i) >= vs.map(_(i)).min - 1e-9 && m(i) <= vs.map(_(i)).max + 1e-9)
      }
    }
  }

  test("property: prune output size is min(n, s) and a subset of the input") {
    samples(Gen.zip(Gen.chooseNum(1, 60), Gen.chooseNum(1, 40), Gen.chooseNum(1L, 999L))).foreach {
      case (n, s, seed) =>
        val rng = new Rng(seed)
        val ts = (0 until n).toVector.map(i =>
          EmbTuple(i.toLong, s"t${i % 3}", Array.fill(4)(rng.nextGaussian())))
        val out = DiversifyTuples.prune(ts, s)
        assert(out.size == math.min(n, s))
        assert(out.map(_.id).toSet.subsetOf(ts.map(_.id).toSet))
    }
  }

  test("property: rerank output is sorted by non-increasing min distance") {
    samples(Gen.zip(Gen.chooseNum(2, 30), Gen.chooseNum(1L, 999L))).foreach { case (n, seed) =>
      val rng = new Rng(seed)
      val ts = (0 until n).toVector.map(i =>
        EmbTuple(i.toLong, "t", Array.fill(4)(rng.nextGaussian())))
      val q = Vector.fill(3)(Array.fill(4)(rng.nextGaussian()))
      val out = DiversifyTuples.rerank(ts, q, n)
      val minDists = out.map(t => q.map(VecOps.cosineDist(t.vec, _)).min)
      assert(minDists.zip(minDists.tail).forall { case (a, b) => a >= b - 1e-9 })
    }
  }

  test("property: medoids are members of the candidate set") {
    samples(Gen.zip(Gen.chooseNum(2, 40), Gen.chooseNum(1, 8), Gen.chooseNum(1L, 999L))).foreach {
      case (n, k, seed) =>
        val rng = new Rng(seed)
        val ts = (0 until n).toVector.map(i =>
          EmbTuple(i.toLong, "t", Array.fill(3)(rng.nextGaussian())))
        val ms = DiversifyTuples.clusterMedoids(ts, k)
        assert(ms.map(_.id).toSet.subsetOf(ts.map(_.id).toSet))
        assert(ms.size == math.min(k, n))
    }
  }

  test("property: hashed token vectors are unit norm") {
    samples(Gen.zip(Gen.alphaNumStr.suchThat(_.nonEmpty), Gen.chooseNum(1L, 99L)), 40).foreach {
      case (tok, salt) =>
        val v = repro.embed.Hashing.hashVec(tok, salt)
        assert(math.abs(VecOps.norm(v) - 1.0) < 1e-9)
    }
  }

  test("property: Rng.shuffle preserves multiset") {
    samples(Gen.zip(Gen.listOf(Gen.chooseNum(0, 100)), Gen.chooseNum(1L, 999L))).foreach {
      case (xs, seed) =>
        assert(new Rng(seed).shuffle(xs).sorted == xs.sorted)
    }
  }

  test("property: average diversity is non-negative for any selection") {
    samples(Gen.zip(Gen.chooseNum(1, 10), Gen.chooseNum(1, 10), Gen.chooseNum(1L, 999L))).foreach {
      case (nq, nk, seed) =>
        val rng = new Rng(seed)
        val q = Vector.fill(nq)(Array.fill(4)(rng.nextGaussian()))
        val s = Vector.fill(nk)(Array.fill(4)(rng.nextGaussian()))
        assert(repro.core.DiversityMetrics.diversity(q, s).avg >= 0.0)
    }
  }

  test("property: UPGMA cut(k) always yields exactly k non-empty clusters") {
    samples(Gen.zip(Gen.chooseNum(2, 25), Gen.chooseNum(1L, 999L)), 30).foreach { case (n, seed) =>
      val rng = new Rng(seed)
      val pts = Vector.fill(n)(Array.fill(3)(rng.nextGaussian()))
      val d = repro.cluster.Hac.distMatrix(pts, VecOps.euclidean)
      val den = repro.cluster.Hac.upgma(d)
      (1 to n).foreach { k =>
        assert(den.cut(k).distinct.length == k, s"n=$n k=$k")
      }
      // With random cannot-link groups every cut from minK to n is reachable.
      val groups = Array.fill(n)(rng.nextInt(1 + rng.nextInt(n)))
      val constrained = repro.cluster.Hac.upgma(d, groups)
      (math.max(1, constrained.minK) to n).foreach { k =>
        assert(constrained.cut(k).distinct.length == k, s"n=$n k=$k groups=${groups.mkString(",")}")
      }
    }
    // Equidistant points and one far point: the size-weighted update can round
    // a parent merge below its child.
    samples(Gen.zip(Gen.chooseNum(3, 6), Gen.chooseNum(1.0, 2.0), Gen.chooseNum(0.05, 1.0)), 200)
      .foreach { case (b, h, gap) =>
        val den = repro.cluster.Hac.upgma(repro.cluster.Hac.distMatrix(0 to b,
          (i: Int, j: Int) => if (i == 0 || j == 0) h + gap else h))
        (1 to b + 1).foreach(k => assert(den.cut(k).distinct.length == k, s"b=$b h=$h gap=$gap k=$k"))
      }
  }
}
