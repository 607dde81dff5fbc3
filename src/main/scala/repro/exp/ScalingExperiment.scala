package repro.exp

import repro.core.{DiversifyTuples, DiversityMetrics}
import repro.core.DiversifyTuples.EmbTuple
import repro.divbase._
import repro.util.{Rng, VecOps}

/** Fig 7 + Appendices A.2.2/A.2.3 — runtime scaling of the diversification
  * algorithms over synthetic embedding clouds, the effect of pruning on
  * DUST's runtime, and the impact of the candidate multiplier p.
  */
object ScalingExperiment {

  private val Dim = 32 // dimension of the synthetic embeddings

  /** Synthetic cloud: 12 Gaussian blobs in [[Dim]] dimensions — mimics the
    * topical structure of unionable-tuple embeddings.
    */
  def cloud(n: Int): Vector[EmbTuple] = {
    val rng = new Rng(33)
    val centers = Vector.fill(12)(Array.fill(Dim)(rng.nextGaussian()))
    (0 until n).toVector.map { i =>
      val c = centers(rng.nextInt(centers.size))
      EmbTuple(i.toLong, s"tab${i % 10}", c.map(_ + 0.35 * rng.nextGaussian()))
    }
  }

  def queryCloud(n: Int): Vector[Array[Double]] = {
    val rng = new Rng(44)
    Vector.fill(n)(Array.fill(Dim)(rng.nextGaussian()))
  }

  final case class TimingRow(method: String, s: Int, k: Int, millis: Double)

  /** One row per (candidates, k) configuration and method, in order, each
    * the median time of [[Fmt.medianTimes]] after its warm-up.
    */
  private def timings(configs: Seq[(Vector[EmbTuple], Int)]): Vector[TimingRow] = {
    val query = queryCloud(40)
    val algos = Vector[DivAlgo](Gmc(), Clt(), DustDiv())
    val times = Fmt.medianTimes(configs, algos) { case ((cands, k), a) => a.select(cands, query, k) }
    configs.toVector.zip(times).flatMap { case ((cands, k), row) =>
      algos.zip(row).map { case (a, (_, ns)) => TimingRow(a.name, cands.size, k, ns / 1e6) }
    }
  }

  /** Fig 7(a): vary the candidate count s at fixed k. */
  def varyS(sValues: Seq[Int], k: Int): Vector[TimingRow] = timings(sValues.map(s => (cloud(s), k)))

  /** Fig 7(b): vary the output size k at fixed s. */
  def varyK(kValues: Seq[Int], s: Int): Vector[TimingRow] = {
    val cands = cloud(s)
    timings(kValues.map(k => (cands, k)))
  }

  /** A.2.3: DUST runtime with and without pruning (same selection quality
    * comparison is in the bench output).
    */
  final case class PruningRow(variant: String, inputSize: Int, clusteredSize: Int, millis: Double)

  def pruningEffect(nTuples: Int, s: Int, k: Int): Vector[PruningRow] = {
    val cands = cloud(nTuples)
    val query = queryCloud(40)
    val (withP, t1) = Fmt.timed {
      val pruned = DiversifyTuples.prune(cands, s)
      DustDiv().select(pruned, query, k)
      pruned.size
    }
    val (withoutP, t2) = Fmt.timed {
      DustDiv().select(cands, query, k)
      cands.size
    }
    Vector(
      PruningRow("with pruning", nTuples, withP, t1 / 1e6),
      PruningRow("without pruning", nTuples, withoutP, t2 / 1e6),
    )
  }

  /** A.2.2: percentage improvement of the diversity metrics as p grows. */
  final case class PRow(p: Int, avgDiv: Double, minDiv: Double)

  def pImpact(ps: Seq[Int], s: Int = 800, k: Int = 30): Vector[PRow] = {
    // Query tuples live in the same embedding region as the candidates
    // (they are unionable), so re-ranking among > k candidates has query
    // overlap to avoid — the situation p controls (App. A.2.2).
    val all = cloud(s + 40)
    val cands = all.take(s)
    val query = all.drop(s).map(_.vec)
    ps.toVector.map { p =>
      val d = DiversityMetrics.diversity(query, DustDiv(p = p).select(cands, query, k).map(_.vec))
      PRow(p, d.avg, d.min)
    }
  }

  def renderTimings(rows: Seq[TimingRow]): String =
    Fmt.table(
      Seq("Method", "s", "k", "Time(ms)"),
      rows.map(r => Seq(r.method, r.s.toString, r.k.toString, Fmt.f2(r.millis))))

  def renderPruning(rows: Seq[PruningRow]): String =
    rows.map(r => f"${r.variant}%-18s clustered=${r.clusteredSize}%5d time=${r.millis}%8.1f ms").mkString("\n")

  def renderPImpact(rows: Seq[PRow]): String =
    rows.map(r => f"p=${r.p} avgDiv=${r.avgDiv}%.4f minDiv=${r.minDiv}%.4f").mkString("\n")
}
