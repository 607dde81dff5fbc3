package repro.embed

import org.scalatest.funsuite.AnyFunSuite
import repro.util.{Rng, VecOps}

class HashingSpec extends AnyFunSuite {

  test("hashVec is deterministic") {
    assert(Hashing.hashVec("tok", 1).toSeq == Hashing.hashVec("tok", 1).toSeq)
  }

  test("hashVec differs across keys") {
    val a = Hashing.hashVec("a", 1); val b = Hashing.hashVec("b", 1)
    assert(VecOps.cosineSim(a, b) < 0.5)
  }

  test("hashVec differs across salts") {
    val a = Hashing.hashVec("a", 1); val b = Hashing.hashVec("a", 2)
    assert(VecOps.cosineSim(a, b) < 0.5)
  }

  test("hashVec is unit-norm") {
    val v = Hashing.hashVec("x", 3)
    assert(v.length == HashLm.Dim)
    assert(math.abs(VecOps.norm(v) - 1.0) < 1e-9)
  }

  test("unrelated hash vectors are near-orthogonal on average") {
    val sims = (0 until 200).map { i =>
      VecOps.cosineSim(Hashing.hashVec(s"k$i", 1), Hashing.hashVec(s"q$i", 1))
    }
    assert(math.abs(sims.sum / sims.size) < 0.05)
  }

  test("hashVec equals normalize(Array.fill(Dim)(nextGaussian)) bit for bit") {
    def reference(key: String, salt: Long): Array[Double] = {
      val rng = new Rng(Rng.mix(salt, Rng.hashString(key)))
      val v = Array.fill(HashLm.Dim)(rng.nextGaussian())
      val n = VecOps.norm(v)
      if (n == 0.0) v.clone() else v.map(_ / n)
    }
    val keys = Vector("", "a", "ctx:", "ctx:t3c2v", "<ab", "\u0000cone", "日本") ++ (0 until 300).map(i => s"k$i")
    for (key <- keys; salt <- Seq(0L, 1L, -7L, HashLm.roberta.salt, HashLm.fastText.salt)) {
      val got = Hashing.hashVec(key, salt).map(java.lang.Double.doubleToRawLongBits)
      assert(got.toSeq == reference(key, salt).map(java.lang.Double.doubleToRawLongBits).toSeq, s"$key $salt")
    }
  }

  test("charNgrams produces padded n-grams") {
    val grams = Hashing.charNgrams("ab")
    assert(grams == Vector("<ab", "ab>", "<ab>"))
  }

  test("charNgrams of longer token covers 3..5 grams") {
    val grams = Hashing.charNgrams("abcdef")
    assert(grams.contains("<ab") && grams.contains("def>"))
    assert(grams.forall(g => g.length >= 3 && g.length <= 5))
  }

  test("charNgrams never returns empty") {
    assert(Hashing.charNgrams("a").nonEmpty)
  }

  test("ngramVec of shared-prefix tokens are similar") {
    val a = Hashing.ngramVec("t3c2v17")(Hashing.hashVec(_, 1))
    val b = Hashing.ngramVec("t3c2v18")(Hashing.hashVec(_, 1))
    val c = Hashing.ngramVec("t9c5v44")(Hashing.hashVec(_, 1))
    assert(VecOps.cosineSim(a, b) > VecOps.cosineSim(a, c))
  }

  test("ngramVec is unit-norm") {
    assert(math.abs(VecOps.norm(Hashing.ngramVec("token")(Hashing.hashVec(_, 5))) - 1.0) < 1e-9)
  }
}
