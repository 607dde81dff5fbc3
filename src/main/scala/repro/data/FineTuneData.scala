package repro.data

import repro.util.Rng

/** The TUS fine-tuning benchmark (§6.1.1): balanced tuple pairs with a
  * unionability label, split 70/15/15 into train/validation/test without
  * leakage (a pair appears in exactly one split).
  *
  * Label 1 — tuples from the same table or from two unionable tables
  * (same base); label 0 — tuples from two non-unionable tables. A small
  * label-noise rate stands in for the annotation/real-data noise that keeps
  * the paper's fine-tuned accuracy at 0.85 rather than 1.0 (see DESIGN.md).
  */
object FineTuneData {

  /** One data point: two tuples (as header→value pairs) and a label. */
  final case class FtPair(
      t1: Vector[(String, String)],
      t2: Vector[(String, String)],
      label: Int,
  )

  final case class FtSplit(train: Vector[FtPair], validation: Vector[FtPair], test: Vector[FtPair])

  /** Build a balanced pair dataset over a benchmark's lake tables. */
  def build(bench: LakeBenchmark, nPairs: Int, labelNoise: Double = 0.08, seed: Long = 9001): FtSplit = {
    require(nPairs % 2 == 0, "nPairs must be even (balanced)")
    val rng = new Rng(seed)
    val tables = bench.lake
    val byBase: Map[Int, Vector[SimpleTable]] = tables.groupBy(_.baseId)
    val baseIds = byBase.keys.toVector.sorted

    def randomRow(t: SimpleTable): Vector[(String, String)] = t.rowPairs(rng.nextInt(t.nRows))

    def positive(): FtPair = {
      val base = baseIds(rng.nextInt(baseIds.length))
      val ts = byBase(base)
      // Half of the positives are same-table pairs (self-supervision, §4).
      if (rng.nextDouble() < 0.5 || ts.length == 1) {
        val t = ts(rng.nextInt(ts.length))
        FtPair(randomRow(t), randomRow(t), 1)
      } else {
        val i = rng.nextInt(ts.length)
        var j = rng.nextInt(ts.length)
        if (j == i) j = (i + 1) % ts.length
        FtPair(randomRow(ts(i)), randomRow(ts(j)), 1)
      }
    }

    def negative(): FtPair = {
      val i = rng.nextInt(baseIds.length)
      var j = rng.nextInt(baseIds.length)
      if (j == i) j = (i + 1) % baseIds.length
      val t1 = byBase(baseIds(i)); val t2 = byBase(baseIds(j))
      FtPair(randomRow(t1(rng.nextInt(t1.length))), randomRow(t2(rng.nextInt(t2.length))), 0)
    }

    val half = nPairs / 2
    val raw = (Vector.fill(half)(positive()) ++ Vector.fill(half)(negative()))
    val noisy = raw.map { p =>
      if (rng.nextDouble() < labelNoise) p.copy(label = 1 - p.label) else p
    }
    val shuffled = rng.shuffle(noisy)
    val nTrain = (nPairs * 0.70).toInt
    val nVal   = (nPairs * 0.15).toInt
    FtSplit(
      train = shuffled.take(nTrain),
      validation = shuffled.slice(nTrain, nTrain + nVal),
      test = shuffled.drop(nTrain + nVal),
    )
  }
}
