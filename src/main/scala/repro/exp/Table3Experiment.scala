package repro.exp

import repro.core.{ColumnAlignment, DiversityMetrics, Dust, OuterUnion}
import repro.data.LakeBenchmark
import repro.embed.ColumnEmbedders
import repro.search.{LlmSim, TupleSearch, UnionSearch}

/** Table 3 — DUST against table union search techniques (§6.5): per query,
  * the k tuples of (a) Starmie used as a tuple index, (b) the LLM generator
  * (UGEN only — token limits), (c) DUST end-to-end, all embedded with the
  * DUST model for scoring; count per-benchmark diversity wins. Also reports
  * Starmie's MAP on the benchmark (§6.5.2's discussion) and the share of
  * DUST's selected tuples that come from tables outside the query's ground
  * truth (another `baseId`), which is what a search error costs DUST.
  */
object Table3Experiment {

  final case class BenchResult(benchmark: String, results: Vector[DiversityWins.MethodResult],
                               starmieMap: Double, dustOffBase: Double, nQueries: Int)
    extends DiversityWins.Table

  def run(bench: LakeBenchmark, k: Int): BenchResult = {
    val tfidf = Benchmarks.tfidfFor(bench)
    val model = Models.dustRoberta

    val perQuery = bench.queries.flatMap { q =>
      val gtTables = bench.unionableFor(q)
      if (gtTables.isEmpty) None
      else {
        // The ground-truth union, unembedded: Starmie's tuple index.
        val aligned = ColumnAlignment.alignHolistic(q, gtTables, ColumnEmbedders.dustDefault, tfidf)
        val lakeTuples = OuterUnion.union(q, gtTables, aligned)
        val kk = math.min(k, math.max(1, lakeTuples.size - 1))

        // DUST end-to-end over the top |gt| of one lake ranking, which also gives MAP.
        val ranked = UnionSearch.rankTables(q, bench, ColumnEmbedders.dustDefault, tfidf)
        val dust = Dust.run(q, bench, model, Dust.Config(topN = gtTables.size, k = kk),
                            tfidfOpt = Some(tfidf), tablesOverride = Some(ranked.take(gtTables.size).map(_.table)))

        // Starmie as a tuple index: most-similar k tuples.
        val starmieSel = model.embedAll(TupleSearch.topK(lakeTuples, dust.queryTuples, kk).map(_.pairs))

        // The LLM declines queries over its prompt budget (SANTOS's "-").
        val llmSel = LlmSim.generate(q, kk).map(gs => model.embedAll(gs.map(_.pairs)))

        val perMethod =
          Vector("Starmie" -> starmieSel, "DUST" -> dust.selectedEmb) ++ llmSel.map(s => "LLM" -> s).toVector
        val scored = perMethod.map { case (m, sel) =>
          DiversityWins.Scored(m, DiversityMetrics.diversity(dust.queryEmb, sel))
        }
        val ap = UnionSearch.averagePrecision(q, ranked.map(_.table))
        val baseOf = dust.tables.map(t => t.name -> t.baseId).toMap
        val offBase = dust.selected.count(t => baseOf(t.table) != q.baseId)
        Some((scored, ap, offBase, dust.selected.size))
      }
    }
    val n = perQuery.size
    BenchResult(bench.name,
      DiversityWins.tally(Vector("Starmie", "LLM", "DUST"), perQuery.map(_._1)),
      perQuery.map(_._2).foldLeft(0.0)(_ + _) / math.max(1, n),
      perQuery.map(_._3).sum.toDouble / math.max(1, perQuery.map(_._4).sum), n)
  }

  /** The wins table, then Starmie's MAP and DUST's off-base share. */
  def render(santos: BenchResult, ugen: BenchResult): String =
    DiversityWins.render(Seq(santos, ugen)) + "\n" +
      f"Starmie table-search MAP: SANTOS ${santos.starmieMap}%.2f " +
      f"(paper 0.78), UGEN ${ugen.starmieMap}%.2f (paper 0.64)." + "\n" +
      f"DUST's selected tuples from tables outside the query's ground truth: " +
      f"SANTOS ${santos.dustOffBase * 100}%.0f%%, UGEN ${ugen.dustOffBase * 100}%.0f%%."
}
