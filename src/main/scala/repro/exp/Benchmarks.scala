package repro.exp

import repro.data.{FineTuneData, Generators, LakeBenchmark}
import repro.embed.TfIdf

/** What experiments and bench suites share beyond the benchmark instances
  * (`Generators.tusLite` etc.): fitted TF-IDF corpora, the fine-tuning
  * pairs and the experiment ks and pruning budget. A shared corpus also
  * shares its lake's column-embedding index across suites.
  */
object Benchmarks {
  private val tfidfCache = scala.collection.mutable.HashMap.empty[String, TfIdf]
  def tfidfFor(b: LakeBenchmark): TfIdf =
    tfidfCache.synchronized {
      tfidfCache.getOrElseUpdate(b.name, TfIdf.fit(b.lake ++ b.queries))
    }

  /** Fine-tuning pair benchmark, built on TUS (§6.1.1): balanced, 70/15/15. */
  lazy val fineTune: FineTuneData.FtSplit = FineTuneData.build(Generators.tusLite, nPairs = 6000)

  /** Experiment ks: scaled-down versions of the paper's k=100 (SANTOS) and
    * k=30 (UGEN), proportional to the lite lakes.
    */
  val santosK = 30
  val ugenK   = 10

  /** Pruning budget applied uniformly (paper: s ≤ 2500). */
  val pruneS = 600
}
