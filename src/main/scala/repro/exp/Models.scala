package repro.exp

import repro.core.{Ditto, DustModel, TupleFeaturizer}
import repro.core.DustModel.TrainStats
import repro.embed.HashLm

/** Trained-model registry shared by experiments and benches. Training is
  * deterministic, so all suites agree on the models.
  */
object Models {

  /** Base featurizers (the "pre-trained transformer output"). */
  lazy val bertBase: TupleFeaturizer    = TupleFeaturizer(HashLm.bert)
  lazy val robertaBase: TupleFeaturizer = TupleFeaturizer(HashLm.roberta)

  /** sBERT pools with IDF weighting (sentence-similarity fine-tuning
    * down-weights ubiquitous tokens).
    */
  lazy val sbertBase: TupleFeaturizer = {
    val tfidf = Benchmarks.tfidfFor(Benchmarks.tus)
    TupleFeaturizer(HashLm.sbert, idf = Some(tfidf.idfOf))
  }

  /** Encoders as the fine-tuning heads see them (token-level information
    * retained; see HashLm.dustBase).
    */
  lazy val bertEncoder: TupleFeaturizer    = TupleFeaturizer(HashLm.dustBase(HashLm.bert))
  lazy val robertaEncoder: TupleFeaturizer = TupleFeaturizer(HashLm.dustBase(HashLm.roberta))

  /** DUST (BERT): fine-tuned on the TUS pair benchmark, with its training stats. */
  lazy val dustBertFit: (DustModel, TrainStats) = {
    val s = Benchmarks.fineTune
    DustModel.finetuneOnPairs(bertEncoder, s.train, s.validation, DustModel.TrainConfig(seed = 11))
  }
  lazy val dustBert: DustModel = dustBertFit._1

  /** DUST (RoBERTa)'s training run: the production model (§6.3.4) and its stats. */
  def fitDustRoberta(): (DustModel, TrainStats) = {
    val s = Benchmarks.fineTune
    DustModel.finetuneOnPairs(robertaEncoder, s.train, s.validation, DustModel.TrainConfig(seed = 12))
  }
  lazy val dustRobertaFit: (DustModel, TrainStats) = fitDustRoberta()
  lazy val dustRoberta: DustModel = dustRobertaFit._1

  /** Ditto: entity-matching fine-tuning of the same encoder. */
  lazy val dittoFit: (DustModel, TrainStats) = Ditto.train(robertaEncoder, Benchmarks.tus)
  lazy val ditto: DustModel = dittoFit._1
}
