package repro.core

import java.nio.ByteBuffer
import java.security.MessageDigest
import java.util.concurrent.ForkJoinPool
import repro.SparkSpec
import repro.data.FineTuneData
import repro.data.FineTuneData.FtPair
import repro.embed.HashLm
import repro.exp.{Benchmarks, Models}
import repro.util.VecOps

class DustModelSpec extends SparkSpec {
  import DustModelSpec._

  private lazy val model = Models.dustRoberta
  private lazy val split = Benchmarks.fineTune

  test("embedding dimension matches the configured head") {
    assert(model.embed(Seq(("a", "b"))).length == DustModel.Out)
  }

  test("embedding is deterministic") {
    val p = Seq(("h", "t0c0v1"))
    assert(model.embed(p).toSeq == model.embed(p).toSeq)
  }

  test("fine-tuned model separates unionable from non-unionable pairs") {
    val pos = split.test.filter(_.label == 1).take(100)
    val neg = split.test.filter(_.label == 0).take(100)
    def meanDist(ps: Seq[FtPair]) = {
      val es = model.embedAll(ps.flatMap(p => Seq(p.t1, p.t2)))
      ps.indices.map(i => VecOps.cosineDist(es(2 * i), es(2 * i + 1))).sum / ps.size
    }
    assert(meanDist(neg) > meanDist(pos) + 0.3)
  }

  test("test accuracy beats every raw baseline by >= 15% (paper's headline)") {
    val dustAcc = DustModel.accuracy(model.embedAll, split.test)
    val baselines = Seq(
      DustModel.accuracy(Models.bertBase.featuresAll, split.test),
      DustModel.accuracy(Models.robertaBase.featuresAll, split.test),
      DustModel.accuracy(Models.sbertBase.featuresAll, split.test),
    )
    baselines.foreach(b => assert(dustAcc >= b * 1.15, s"dust=$dustAcc vs baseline=$b"))
  }

  test("raw pre-trained models are near coin-toss (anisotropy)") {
    val bert = DustModel.accuracy(Models.bertBase.featuresAll, split.test)
    val roberta = DustModel.accuracy(Models.robertaBase.featuresAll, split.test)
    assert(math.abs(bert - 0.5) < 0.07)
    assert(math.abs(roberta - 0.5) < 0.07)
  }

  test("training is deterministic in the seed") {
    val tiny = FineTuneData.build(repro.data.Generators.ugenLite, nPairs = 200, seed = 5)
    val base = TupleFeaturizer(HashLm.dustBase(HashLm.roberta))
    val cfg = DustModel.TrainConfig(maxEpochs = 3, seed = 99)
    val m1 = DustModel.finetuneOnPairs(base, tiny.train, tiny.validation, cfg)._1
    val m2 = DustModel.finetuneOnPairs(base, tiny.train, tiny.validation, cfg)._1
    val p = Seq(("h", "v"))
    assert(m1.embed(p).toSeq == m2.embed(p).toSeq)
  }

  test("early stopping reports convergence stats") {
    val tiny = FineTuneData.build(repro.data.Generators.ugenLite, nPairs = 200, seed = 6)
    val base = TupleFeaturizer(HashLm.dustBase(HashLm.roberta))
    val cfg = DustModel.TrainConfig(maxEpochs = 30, patience = 5, seed = 3)
    val fit = DustModel.finetuneOnPairs(base, tiny.train, tiny.validation, cfg)
    assert(fit._2.converged && fit._2.epochsRun < cfg.maxEpochs)
    // Best at epoch 11 of 16: the model is that epoch's snapshot, not the last.
    assert(pin(fit) == "396f383d0b62efca2f9d4457b39a9ed48e8f3e81d52f4233a7f5eb3dcff5c5d0 16 3fcf2ba6b734c3fc true")
  }

  test("the trained models keep their pinned bits and training stats") {
    assert(pin(Models.dustRobertaFit) == DustRobertaPin)
    assert(pin(Models.dustBertFit) == DustBertPin)
    assert(pin(Models.dittoFit) == DittoPin)
  }

  test("fine-tuning on a one-worker pool gives the pinned DUST (RoBERTa)") {
    val pool = new ForkJoinPool(1)
    try assert(pin(pool.submit(() => Models.fitDustRoberta()).get()) == DustRobertaPin)
    finally pool.shutdown()
  }

  test("predictUnionable thresholds cosine distance at 0.7") {
    val e = Array(1.0, 0.0)
    assert(DustModel.predictUnionable(e, Array(1.0, 0.0)))       // dist 0
    assert(!DustModel.predictUnionable(e, Array(-1.0, 0.0)))     // dist 2
    assert(DustModel.predictUnionable(e, Array(0.5, 0.866)))     // dist 0.5
  }

  test("accuracy of a perfect oracle embedder is bounded by label noise") {
    // With 8% label noise, even ground truth scores ~0.92.
    val acc = DustModel.accuracy(model.embedAll, split.test)
    assert(acc < 0.97)
  }

  test("accuracy rejects empty evaluation sets") {
    intercept[IllegalArgumentException](DustModel.accuracy(_ => Vector.empty, Nil))
  }

  test("DUST (RoBERTa) and DUST (BERT) both clear 0.75 accuracy") {
    assert(DustModel.accuracy(Models.dustRoberta.embedAll, split.test) > 0.75)
    assert(DustModel.accuracy(Models.dustBert.embedAll, split.test) > 0.75)
  }

  test("embedding robustness to column order (App. A.2.1)") {
    val rng = new repro.util.Rng(314)
    val tuples = split.test.take(150).map(_.t1)
    val es = model.embedAll(tuples ++ tuples.map(t => rng.shuffle(t)))
    val sims = tuples.indices.map(i => VecOps.cosineSim(es(i), es(tuples.size + i)))
    val mean = sims.sum / sims.size
    assert(mean > 0.95, s"mean order-shuffle similarity $mean")
  }
}

object DustModelSpec {

  /** A trained model's fingerprint: the SHA-256 of the raw bits of its
    * embeddings of the first 200 fine-tune test tuples, then its
    * `TrainStats` (epochs run, raw bits of the best validation loss, and
    * whether patience stopped it).
    */
  def pin(fit: (DustModel, DustModel.TrainStats)): String = {
    val (model, st) = fit
    val tuples = Benchmarks.fineTune.test.flatMap(p => Seq(p.t1, p.t2)).take(200)
    val md = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(8)
    model.embedAll(tuples).foreach(_.foreach { v =>
      buf.clear(); buf.putLong(java.lang.Double.doubleToRawLongBits(v)); md.update(buf.array())
    })
    val hex = md.digest().map(b => f"$b%02x").mkString
    s"$hex ${st.epochsRun} ${java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(st.bestValLoss))} ${st.converged}"
  }

  // Recorded before the SGD step was restructured (commit e5e7260).
  val DustRobertaPin = "322e34ae19bb3cd02f1c9f69114b8edbafc608a6caea19c2b2442b8c8bdc7d73 60 3fc04d4148f70cd1 false"
  val DustBertPin = "1878b8dbc26d013c3b4522374ec836cc001b00b0fe039bc331abf5d851bdea8b 60 3fc587337ce91295 false"
  val DittoPin = "0b1f071673fec86130500f8d8db75ec8ae04f7b3162ec8945bb8cda09a7852d7 43 3fcb1e325a8ae3a9 true"
}
