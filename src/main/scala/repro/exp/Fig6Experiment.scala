package repro.exp

import repro.core.DustModel

/** Fig 6 — unionable tuple representation accuracy (§6.3): six embedders
  * classified with the fixed cosine-distance threshold (0.7) on the
  * fine-tuning benchmark's test split.
  */
object Fig6Experiment {

  final case class Row(model: String, accuracy: Double)

  def run(): Vector[Row] = {
    val test = Benchmarks.fineTune.test
    def acc(embedAll: Seq[Seq[(String, String)]] => Seq[Array[Double]]): Double =
      DustModel.accuracy(embedAll, test)
    Vector(
      Row("BERT", acc(Models.bertBase.featuresAll)),
      Row("RoBERTa", acc(Models.robertaBase.featuresAll)),
      Row("sBERT", acc(Models.sbertBase.featuresAll)),
      Row("Ditto", acc(Models.ditto.embedAll)),
      Row("DUST (BERT)", acc(Models.dustBert.embedAll)),
      Row("DUST (RoBERTa)", acc(Models.dustRoberta.embedAll)),
    )
  }

  def render(rows: Seq[Row]): String =
    Fmt.table(Seq("Model", "Accuracy"), rows.map(r => Seq(r.model, Fmt.f2(r.accuracy))))
}
