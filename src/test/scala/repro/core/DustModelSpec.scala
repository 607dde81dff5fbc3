package repro.core

import repro.SparkSpec
import repro.data.FineTuneData
import repro.data.FineTuneData.FtPair
import repro.embed.HashLm
import repro.exp.{Benchmarks, Models}
import repro.util.VecOps

class DustModelSpec extends SparkSpec {

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
    def meanDist(ps: Seq[FtPair]) =
      ps.map(p => VecOps.cosineDist(model.embed(p.t1), model.embed(p.t2))).sum / ps.size
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
    val (_, st) = DustModel.finetuneOnPairs(base, tiny.train, tiny.validation,
      DustModel.TrainConfig(maxEpochs = 5, patience = 2, seed = 1))
    assert(st.epochsRun <= 5 && st.bestValLoss >= 0.0)
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
    val sims = tuples.map { t =>
      val shuffled = rng.shuffle(t)
      VecOps.cosineSim(model.embed(t), model.embed(shuffled))
    }
    val mean = sims.sum / sims.size
    assert(mean > 0.95, s"mean order-shuffle similarity $mean")
  }
}
