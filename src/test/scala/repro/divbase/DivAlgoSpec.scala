package repro.divbase

import org.scalatest.funsuite.AnyFunSuite
import repro.core.DiversifyTuples.EmbTuple
import repro.util.{Rng, VecOps}

class DivAlgoSpec extends AnyFunSuite {

  private def mkTuples(n: Int, seed: Long, dim: Int = 6): Vector[EmbTuple] = {
    val rng = new Rng(seed)
    (0 until n).toVector.map(i => EmbTuple(i.toLong, "t", Array.fill(dim)(rng.nextGaussian())))
  }
  private def mkQuery(n: Int, seed: Long, dim: Int = 6): Vector[Array[Double]] = {
    val rng = new Rng(seed)
    Vector.fill(n)(Array.fill(dim)(rng.nextGaussian()))
  }

  test("relevance is 1 for the centroid itself") {
    val c = Array(1.0, 2.0)
    assert(math.abs(DivAlgo.relevance(EmbTuple(0, "t", c), c) - 1.0) < 1e-9)
  }

  test("setScore is zero for the empty set") {
    assert(DivAlgo.setScore(Vector.empty, Array(1.0)) == 0.0)
  }

  test("setScore grows when a diverse element is added") {
    val centroid = Array(1.0, 0.0)
    val a = EmbTuple(0, "t", Array(1.0, 0.0))
    val b = EmbTuple(1, "t", Array(-1.0, 0.0))
    val s1 = DivAlgo.setScore(Vector(a), centroid)
    val s2 = DivAlgo.setScore(Vector(a, b), centroid)
    assert(s2 > s1)
  }

  // ----- GMC -----

  test("GMC returns k distinct tuples") {
    val sel = Gmc().select(mkTuples(50, 1), mkQuery(5, 2), 10)
    assert(sel.size == 10 && sel.map(_.id).distinct.size == 10)
  }

  test("GMC caps k at candidate count") {
    assert(Gmc().select(mkTuples(4, 3), mkQuery(2, 4), 10).size == 4)
  }

  test("GMC on empty candidates yields empty") {
    assert(Gmc().select(Vector.empty, mkQuery(2, 5), 3).isEmpty)
  }

  test("GMC spreads its first two picks over two antipodal blobs") {
    // The second pick gains ~2 of diversity from the other blob; relevance,
    // weighted λ(k−1) = 0.5, can move its score by at most 1.
    val a = (0 until 10).toVector.map(i => EmbTuple(i.toLong, "t", Array(1.0, 0.001 * i)))
    val b = (10 until 20).toVector.map(i => EmbTuple(i.toLong, "t", Array(-1.0, 0.001 * i)))
    val sel = Gmc().select(a ++ b, mkQuery(2, 6, dim = 2), 2)
    assert(sel.map(_.id / 10).toSet == Set(0L, 1L))
  }

  test("GMC is deterministic") {
    val c = mkTuples(30, 7); val q = mkQuery(3, 8)
    assert(Gmc().select(c, q, 8).map(_.id) == Gmc().select(c, q, 8).map(_.id))
  }

  test("GMC achieves a higher max-sum objective than random selection") {
    val c = mkTuples(60, 9); val q = mkQuery(4, 10)
    val centroid = VecOps.mean(q)
    val gmc = DivAlgo.setScore(Gmc().select(c, q, 10), centroid)
    val rnd = DivAlgo.setScore(RandomDiv(1).select(c, q, 10), centroid)
    assert(gmc >= rnd)
  }

  // ----- GNE -----

  test("GNE returns k distinct tuples") {
    val sel = Gne().select(mkTuples(30, 11), mkQuery(3, 12), 6)
    assert(sel.size == 6 && sel.map(_.id).distinct.size == 6)
  }

  test("GNE is deterministic in its seed") {
    val c = mkTuples(25, 13); val q = mkQuery(3, 14)
    val a = Gne().select(c, q, 5).map(_.id)
    val b = Gne().select(c, q, 5).map(_.id)
    assert(a == b)
  }

  test("GNE never scores below its own greedy construction quality floor") {
    val c = mkTuples(40, 15); val q = mkQuery(4, 16)
    val centroid = VecOps.mean(q)
    val gne = DivAlgo.setScore(Gne().select(c, q, 8), centroid)
    assert(gne > 0.0)
  }

  test("GNE on empty candidates yields empty") {
    assert(Gne().select(Vector.empty, mkQuery(2, 17), 3).isEmpty)
  }

  // ----- CLT -----

  test("CLT returns k medoids") {
    val sel = Clt().select(mkTuples(40, 18), mkQuery(3, 19), 8)
    assert(sel.size == 8 && sel.map(_.id).distinct.size == 8)
  }

  test("CLT ignores the query tuples") {
    val c = mkTuples(30, 20)
    val a = Clt().select(c, mkQuery(3, 21), 6).map(_.id)
    val b = Clt().select(c, mkQuery(3, 99), 6).map(_.id)
    assert(a == b)
  }

  test("CLT handles fewer candidates than k") {
    assert(Clt().select(mkTuples(3, 22), mkQuery(2, 23), 10).size == 3)
  }

  // ----- Random -----

  test("Random selects k distinct tuples") {
    val sel = RandomDiv(7).select(mkTuples(30, 24), mkQuery(2, 25), 9)
    assert(sel.size == 9 && sel.map(_.id).distinct.size == 9)
  }

  test("Random differs across seeds") {
    val c = mkTuples(50, 26); val q = mkQuery(2, 27)
    assert(RandomDiv(1).select(c, q, 10).map(_.id) != RandomDiv(2).select(c, q, 10).map(_.id))
  }

  // ----- DUST -----

  test("DUST returns k distinct tuples") {
    val sel = DustDiv().select(mkTuples(60, 28), mkQuery(5, 29), 12)
    assert(sel.size == 12 && sel.map(_.id).distinct.size == 12)
  }

  test("DUST avoids tuples identical to query tuples when alternatives exist") {
    // Candidates: copies of the query tuple + genuinely novel points.
    val qv = Array(1.0, 0.0, 0.0)
    val copies = (0 until 5).toVector.map(i => EmbTuple(i.toLong, "t", qv.clone()))
    val rng = new Rng(30)
    val novel = (5 until 20).toVector.map(i =>
      EmbTuple(i.toLong, "t", Array(rng.nextGaussian(), rng.nextGaussian(), 2.0)))
    val sel = DustDiv().select(copies ++ novel, Vector(qv), 5)
    assert(sel.forall(_.id >= 5), s"picked a query copy: ${sel.map(_.id)}")
  }

  test("DUST min-diversity beats CLT's on clustered data with query overlap") {
    // Candidate blob sitting on the query: CLT may pick it, DUST re-ranks away.
    val rng = new Rng(31)
    val qv = Vector(Array(1.0, 0.0))
    val onQuery = (0 until 10).toVector.map(i =>
      EmbTuple(i.toLong, "t", Array(1.0 + 0.01 * rng.nextGaussian(), 0.01 * rng.nextGaussian())))
    val away = (10 until 40).toVector.map { i =>
      val ang = rng.nextDouble() * math.Pi + 0.5
      EmbTuple(i.toLong, "t", Array(math.cos(ang), math.sin(ang)))
    }
    val cands = onQuery ++ away
    val dust = DustDiv().select(cands, qv, 5).map(_.vec)
    val clt = Clt().select(cands, qv, 5).map(_.vec)
    val dustMin = repro.core.DiversityMetrics.diversity(qv, dust).min
    val cltMin = repro.core.DiversityMetrics.diversity(qv, clt).min
    assert(dustMin >= cltMin)
  }
}
