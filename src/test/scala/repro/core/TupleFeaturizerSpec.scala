package repro.core

import repro.SparkSpec
import repro.embed.HashLm
import repro.util.VecOps

class TupleFeaturizerSpec extends SparkSpec {
  private val f = TupleFeaturizer(HashLm.dustBase(HashLm.roberta))

  test("features have the model dimension") {
    assert(f.featuresAll(Seq(Seq(("a", "b")))).map(_.length) == Vector(HashLm.Dim))
  }

  test("features are order-invariant over columns (bag pooling)") {
    val Seq(a, b) = f.featuresAll(Seq(Seq(("h1", "v1"), ("h2", "v2")), Seq(("h2", "v2"), ("h1", "v1"))))
    assert(VecOps.cosineSim(a, b) > 0.999)
  }

  test("features of an empty tuple are the zero vector") {
    assert(f.featuresAll(Seq(Nil)).head.forall(_ == 0.0))
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
    val pairs = Seq(Seq(("h", "t0c0v1 com5")))
    assert(VecOps.cosineSim(f.featuresAll(pairs).head, fw.featuresAll(pairs).head) < 0.9999)
  }

  test("cosDist of a tuple with itself is zero") {
    val Seq(a, b) = f.featuresAll(Seq(Seq(("h", "v")), Seq(("h", "v"))))
    assert(math.abs(VecOps.cosineDist(a, b)) < 1e-9)
  }
}
