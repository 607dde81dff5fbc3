package repro.core

import repro.data.{LakeBenchmark, SimpleTable}
import repro.data.FineTuneData.FtPair
import repro.util.Rng

/** Ditto baseline (§6.3.2): the same Siamese head fine-tuned for *entity
  * matching* — positives are two serializations of the same real-world
  * entity (a row and a lightly perturbed copy), negatives are two different
  * rows (half from the same table, half across tables). A model trained this
  * way separates rows, not topics, so it transfers only partially to the
  * unionability task — the mechanism behind its 0.66 in Fig 6.
  */
object Ditto {

  /** Build an entity-matching training set over a benchmark's lake. */
  def emPairs(bench: LakeBenchmark, nPairs: Int, seed: Long = 777): Vector[FtPair] = {
    require(nPairs % 2 == 0, "nPairs must be even")
    val rng = new Rng(seed)
    val tables = bench.lake.filter(_.nRows >= 2)

    def row(t: SimpleTable, i: Int): Vector[(String, String)] = t.rowPairs(i)

    /** Perturb: drop one attribute (entity unchanged, surface differs). */
    def perturb(pairs: Vector[(String, String)]): Vector[(String, String)] =
      if (pairs.length <= 1) pairs
      else { val drop = rng.nextInt(pairs.length); pairs.zipWithIndex.collect { case (p, i) if i != drop => p } }

    def positive(): FtPair = {
      val t = tables(rng.nextInt(tables.length))
      val i = rng.nextInt(t.nRows)
      FtPair(row(t, i), perturb(row(t, i)), 1)
    }

    def negative(): FtPair =
      if (rng.nextDouble() < 0.5) {
        val t = tables(rng.nextInt(tables.length))
        val i = rng.nextInt(t.nRows)
        var j = rng.nextInt(t.nRows)
        if (j == i) j = (i + 1) % t.nRows
        FtPair(row(t, i), row(t, j), 0)
      } else {
        val t1 = tables(rng.nextInt(tables.length))
        val t2 = tables(rng.nextInt(tables.length))
        FtPair(row(t1, rng.nextInt(t1.nRows)), row(t2, rng.nextInt(t2.nRows)), 0)
      }

    val half = nPairs / 2
    rng.shuffle(Vector.fill(half)(positive()) ++ Vector.fill(half)(negative()))
  }

  /** Fine-tune the Ditto model on 3000 EM pairs (same architecture as DUST). */
  def train(base: TupleFeaturizer, bench: LakeBenchmark): (DustModel, DustModel.TrainStats) = {
    val pairs = emPairs(bench, 3000)
    val nVal = pairs.length / 10
    DustModel.finetuneOnPairs(base, pairs.drop(nVal), pairs.take(nVal), DustModel.TrainConfig(seed = 777))
  }
}
