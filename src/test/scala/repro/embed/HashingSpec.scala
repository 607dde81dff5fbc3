package repro.embed

import org.scalatest.funsuite.AnyFunSuite
import repro.util.VecOps

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
