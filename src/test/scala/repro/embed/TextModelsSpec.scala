package repro.embed

import scala.reflect.ClassTag
import repro.SparkSpec
import repro.data.Tokenizer
import repro.util.VecOps

class TextModelsSpec extends SparkSpec {

  /** `f` on the token table of a one-element batch of `lm`. */
  private def pooled[A: ClassTag](lm: HashLm)(f: HashLm.TokenTable => A): A =
    lm.batch(1)((table, _) => f(table)).head

  test("tokenVec is unit-norm") {
    HashLm.all.foreach { lm =>
      assert(math.abs(VecOps.norm(lm.tokenVec("t1c2v3")) - 1.0) < 1e-9)
    }
  }

  test("same-column vocabulary tokens embed close (context component)") {
    val lm = HashLm.roberta
    val simSame = VecOps.cosineSim(lm.tokenVec("t1c2v3"), lm.tokenVec("t1c2v9"))
    val simDiff = VecOps.cosineSim(lm.tokenVec("t1c2v3"), lm.tokenVec("t7c4v9"))
    assert(simSame > simDiff)
  }

  test("higher alpha strengthens context similarity") {
    val lo = HashLm("lo", 1, alpha = 0.2, charNgrams = false)
    val hi = HashLm("hi", 1, alpha = 0.9, charNgrams = false)
    def ctxSim(lm: HashLm) = VecOps.cosineSim(lm.tokenVec("t1c2v3"), lm.tokenVec("t1c2v9"))
    assert(ctxSim(hi) > ctxSim(lo))
  }

  test("anisotropy inflates cross-topic similarity") {
    val iso = HashLm("iso", 1, alpha = 0.5, charNgrams = false, aniso = 0.0)
    val ani = HashLm("ani", 1, alpha = 0.5, charNgrams = false, aniso = 0.85)
    def crossSim(lm: HashLm) = VecOps.cosineSim(lm.tokenVec("t1c2v3"), lm.tokenVec("t7c4v9"))
    assert(crossSim(ani) > crossSim(iso) + 0.3)
  }

  test("anisotropic models put all tuples in a narrow cone") {
    val lm = HashLm.bert
    val sims = pooled(lm)(table => (0 until 50).map(i =>
      VecOps.cosineSim(table.embedText(s"t${i}c0v1 t${i}c1v2"), table.embedText(s"t${i + 50}c0v7"))))
    assert(sims.min > 0.3) // everything looks "unionable" at the 0.7 dist threshold
  }

  test("different model salts give unrelated spaces") {
    val a = HashLm.bert.copy(aniso = 0.0).tokenVec("park")
    val b = HashLm.roberta.copy(aniso = 0.0).tokenVec("park")
    assert(VecOps.cosineSim(a, b) < 0.5)
  }

  test("embedTokens of empty sequence is the zero vector") {
    assert(pooled(HashLm.bert)(_.embedTokens(Nil)).forall(_ == 0.0))
  }

  test("embedTokens pools all tokens") {
    val lm = HashLm.glove
    val v = pooled(lm)(_.embedTokens(Seq("a", "b")))
    val m = VecOps.normalize(VecOps.mean(Seq(lm.tokenVec("a"), lm.tokenVec("b"))))
    assert(VecOps.cosineSim(v, m) > 0.999)
  }

  test("embedWeighted favors heavier tokens") {
    val lm = HashLm.glove
    val v = pooled(lm)(_.embedWeighted(Seq("a", "b"), Seq(10.0, 0.1)))
    assert(VecOps.cosineSim(v, lm.tokenVec("a")) > VecOps.cosineSim(v, lm.tokenVec("b")))
  }

  test("embedText tokenizes then pools") {
    val lm = HashLm.sbert
    val (text, tokens) = pooled(lm)(table => (table.embedText("Alpha Beta"), table.embedTokens(Seq("alpha", "beta"))))
    assert(VecOps.cosineSim(text, tokens) > 0.999)
  }

  test("fastText uses char n-grams: shared-prefix tokens closer than for glove") {
    def sim(lm: HashLm) = {
      val l = lm.copy(aniso = 0.0, alpha = 0.0)
      VecOps.cosineSim(l.tokenVec("t1c2v3"), l.tokenVec("t1c2v8"))
    }
    assert(sim(HashLm.fastText) > sim(HashLm.glove) + 0.2)
  }

  test("a shared token table pools bit-identical vectors") {
    val lm = HashLm.roberta
    val texts = Vector(Seq("a", "b", "a"), Seq("b", "c"), Seq("a"), Seq("c", "c", "b"), Nil)
    def weights(toks: Seq[String]) = toks.indices.map(_ + 1.0)
    val out = lm.batch(texts.size) { (table, i) =>
      (table.embedTokens(texts(i)), table.embedWeighted(texts(i), weights(texts(i))), table.embedText(texts(i).mkString(" ")))
    }
    // The pooling definitions, written out over the model's token vectors.
    def mean(toks: Seq[String]) =
      if (toks.isEmpty) new Array[Double](HashLm.Dim) else VecOps.normalize(VecOps.mean(toks.map(lm.tokenVec)))
    def weighted(toks: Seq[String]) =
      if (toks.isEmpty) new Array[Double](HashLm.Dim)
      else VecOps.normalize(VecOps.weightedMean(toks.map(lm.tokenVec), weights(toks)))
    texts.zip(out).foreach { case (toks, (m, w, text)) =>
      assert(java.util.Arrays.equals(m, mean(toks)))
      assert(java.util.Arrays.equals(w, weighted(toks)))
      assert(java.util.Arrays.equals(text, mean(Tokenizer.tokens(toks.mkString(" ")))))
    }
  }

  test("table-1 model registry covers the paper's rows") {
    assert(HashLm.all.map(_.name) == Vector("FastText", "Glove", "BERT", "RoBERTa", "sBERT"))
  }
}
