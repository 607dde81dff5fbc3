package repro.core

import repro.SparkSpec
import repro.embed.HashLm
import repro.util.VecOps

class TupleFeaturizerSpec extends SparkSpec {
  private val f = TupleFeaturizer(HashLm.dustBase(HashLm.roberta))

  test("features have the model dimension") {
    assert(f.features(Seq(("a", "b"))).length == f.dim)
  }

  test("features are order-invariant over columns (bag pooling)") {
    val a = f.features(Seq(("h1", "v1"), ("h2", "v2")))
    val b = f.features(Seq(("h2", "v2"), ("h1", "v1")))
    assert(VecOps.cosineSim(a, b) > 0.999)
  }

  test("features of an empty tuple are the zero vector") {
    assert(f.features(Nil).forall(_ == 0.0))
  }

  test("same-topic tuples are closer than cross-topic ones") {
    val t1 = Seq(("t1c0h0", "t1c0v1"), ("t1c1h0", "t1c1v5"))
    val t2 = Seq(("t1c0h0", "t1c0v7"), ("t1c1h0", "t1c1v2"))
    val t3 = Seq(("t9c0h0", "t9c0v1"), ("t9c1h0", "t9c1v5"))
    val Seq(e1, e2, e3) = f.featuresAll(Seq(t1, t2, t3))
    assert(VecOps.cosineDist(e1, e2) < VecOps.cosineDist(e1, e3))
  }

  test("IDF weighting changes the embedding") {
    val idf: String => Double = tok => if (tok.startsWith("com")) 0.01 else 1.0
    val fw = TupleFeaturizer(HashLm.dustBase(HashLm.roberta), idf = Some(idf))
    val pairs = Seq(("h", "t0c0v1 com5"))
    assert(VecOps.cosineSim(f.features(pairs), fw.features(pairs)) < 0.9999)
  }

  test("cosDist of a tuple with itself is zero") {
    val p = Seq(("h", "v"))
    assert(math.abs(VecOps.cosineDist(f.features(p), f.features(p))) < 1e-9)
  }
}
