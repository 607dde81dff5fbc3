package repro.exp

import repro.data.{FineTuneData, Generators, LakeBenchmark}
import repro.embed.TfIdf

/** Shared, lazily-built benchmark instances and fitted TF-IDF corpora, so
  * every experiment and bench suite sees identical data (all generators are
  * deterministic in their seeds). A shared corpus also shares its lake's
  * column-embedding index across suites.
  */
object Benchmarks {
  lazy val tus: LakeBenchmark        = Generators.tusLite
  lazy val tusSampled: LakeBenchmark = Generators.tusSampledLite
  lazy val santos: LakeBenchmark     = Generators.santosLite
  lazy val ugen: LakeBenchmark       = Generators.ugenLite

  private val tfidfCache = scala.collection.mutable.HashMap.empty[String, TfIdf]
  def tfidfFor(b: LakeBenchmark): TfIdf =
    tfidfCache.synchronized {
      tfidfCache.getOrElseUpdate(b.name, TfIdf.fit(b.lake ++ b.queries))
    }

  /** Fine-tuning pair benchmark, built on TUS (§6.1.1): balanced, 70/15/15. */
  lazy val fineTune: FineTuneData.FtSplit = FineTuneData.build(tus, nPairs = 6000)

  /** Experiment ks: scaled-down versions of the paper's k=100 (SANTOS) and
    * k=30 (UGEN), proportional to the lite lakes.
    */
  val santosK = 30
  val ugenK   = 10

  /** Pruning budget applied uniformly (paper: s ≤ 2500). */
  val pruneS = 600
}
