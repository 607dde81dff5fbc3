package repro.exp

import repro.core.{DiversifyTuples, DiversityMetrics, Dust}
import repro.data.LakeBenchmark
import repro.divbase._

/** Table 2 — tuple diversification effectiveness and efficiency (§6.4):
  * for each query, each algorithm diversifies the same pruned candidate set
  * (pruning applied uniformly, App. A.2.3); we count per-benchmark how many
  * queries each algorithm wins on Average and Min diversity, and the mean
  * per-query runtime. GNE runs only on UGEN (it does not scale — paper's
  * "-"). Also runs the best-of-5-seeds random baseline sanity check.
  */
object Table2Experiment {

  final case class BenchResult(benchmark: String, results: Vector[DiversityWins.MethodResult],
                               dustBeatsRandomAvg: Int, dustBeatsRandomMin: Int, nQueries: Int)
    extends DiversityWins.Table

  /** Per-query diversification inputs: candidate lake tuples + query embeddings. */
  final case class QueryInstance(name: String,
                                 cands: Vector[DiversifyTuples.EmbTuple],
                                 queryEmb: Vector[Array[Double]])

  /** Build instances: [[Dust.prepare]] over the ground-truth unionable
    * tables (alignment → outer union → DUST embeddings), then uniform pruning.
    */
  def instances(bench: LakeBenchmark, s: Int = Benchmarks.pruneS): Vector[QueryInstance] = {
    val tfidf = Benchmarks.tfidfFor(bench)
    val model = Models.dustRoberta
    bench.queries.flatMap { q =>
      val tables = bench.unionableFor(q)
      if (tables.isEmpty) None
      else {
        val u = Dust.prepare(q, tables, model, tfidf)
        Some(QueryInstance(q.name, DiversifyTuples.prune(u.lakeEmb, s), u.queryEmb))
      }
    }
  }

  def run(bench: LakeBenchmark, k: Int, includeGne: Boolean): BenchResult = {
    val methods: Vector[DivAlgo] = Vector(Gmc(), Gne(), Clt(), DustDiv())
    val algos = methods.filter(a => includeGne || a.name != "GNE")
    val insts = instances(bench)
    def kFor(inst: QueryInstance) = math.min(k, math.max(1, inst.cands.size - 1))
    // Warm-up, then the median of three calls per query, as Fig 7 times.
    val times = Fmt.medianTimes(insts, algos)((inst, a) => a.select(inst.cands, inst.queryEmb, kFor(inst)))
    var dustBeatsRandomAvg = 0; var dustBeatsRandomMin = 0

    val perQuery = insts.zip(times).map { case (inst, row) =>
      val kk = kFor(inst)
      val scored = algos.zip(row).map { case (a, (sel, ns)) =>
        DiversityWins.Scored(a.name, DiversityMetrics.diversity(inst.queryEmb, sel.map(_.vec)), Some(ns))
      }

      // Best-of-5-seeds random baseline vs DUST (§6.4.3's sanity check).
      val dust = scored.find(_.method == "DUST").get.diversity
      val randomSets = (1 to 5).map { sd =>
        DiversityMetrics.diversity(inst.queryEmb,
          RandomDiv(sd.toLong).select(inst.cands, inst.queryEmb, kk).map(_.vec))
      }
      if (dust.avg >= randomSets.map(_.avg).max) dustBeatsRandomAvg += 1
      if (dust.min >= randomSets.map(_.min).max) dustBeatsRandomMin += 1
      scored
    }

    BenchResult(bench.name, DiversityWins.tally(methods.map(_.name), perQuery),
      dustBeatsRandomAvg, dustBeatsRandomMin, insts.size)
  }

  /** The wins table of both benchmarks, then the random-baseline check. */
  def render(santos: BenchResult, ugen: BenchResult): String =
    DiversityWins.render(Seq(santos, ugen)) + "\n" +
      s"Random-baseline sanity (paper Sec. 6.4.3): DUST beats best-of-5 random " +
      s"on SANTOS for ${santos.dustBeatsRandomAvg}/${santos.nQueries} (Avg) and " +
      s"${santos.dustBeatsRandomMin}/${santos.nQueries} (Min) queries; " +
      s"UGEN ${ugen.dustBeatsRandomAvg}/${ugen.nQueries} (Avg), " +
      s"${ugen.dustBeatsRandomMin}/${ugen.nQueries} (Min)."
}
