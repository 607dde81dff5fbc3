package repro.exp

import repro.core.{ColumnAlignment, DiversityMetrics, Dust, OuterUnion}
import repro.data.LakeBenchmark
import repro.embed.ColumnEmbedders
import repro.search.{LlmSim, TupleSearch, UnionSearch}

/** Table 3 — DUST against table union search techniques (§6.5): per query,
  * the k tuples of (a) Starmie used as a tuple index, (b) the LLM generator
  * (UGEN only — token limits), (c) DUST end-to-end, all embedded with the
  * DUST model for scoring; count per-benchmark diversity wins. Also reports
  * Starmie's MAP on the benchmark (§6.5.2's discussion).
  */
object Table3Experiment {

  final case class MethodResult(method: String, avgWins: Int, minWins: Int, included: Boolean)
  final case class BenchResult(benchmark: String, results: Vector[MethodResult],
                               starmieMap: Double, nQueries: Int)

  def run(bench: LakeBenchmark, k: Int, includeLlm: Boolean): BenchResult = {
    val tfidf = Benchmarks.tfidfFor(bench)
    val model = Models.dustRoberta
    val avgWins = scala.collection.mutable.HashMap.empty[String, Int].withDefaultValue(0)
    val minWins = scala.collection.mutable.HashMap.empty[String, Int].withDefaultValue(0)
    var mapSum = 0.0; var n = 0

    bench.queries.foreach { q =>
      val gtTables = bench.unionableFor(q)
      if (gtTables.nonEmpty) {
        // Shared substrate: alignment over ground-truth unionable tables.
        val aligned = ColumnAlignment.alignHolistic(q, gtTables, ColumnEmbedders.dustDefault, tfidf)
        val lakeTuples = OuterUnion.union(q, gtTables, aligned)
        val queryTuples = OuterUnion.queryTuples(q)
        val queryEmb = Dust.embed(model, queryTuples)
        val kk = math.min(k, math.max(1, lakeTuples.size - 1))

        // Starmie as a tuple index: most-similar k tuples.
        val starmieSel = Dust.embed(model, TupleSearch.topK(lakeTuples, queryTuples, kk))

        // DUST end-to-end over its own searched tables.
        val dust = Dust.run(q, bench, model, Dust.Config(topN = gtTables.size, k = kk),
                            tfidfOpt = Some(tfidf))
        val dustSel = Dust.embed(model, dust.selected)

        val llmSel =
          if (includeLlm)
            LlmSim.generate(q, kk).map(_.map(g => model.embed(g.pairs)))
          else None

        val perMethod =
          Vector("Starmie" -> starmieSel, "DUST" -> dustSel) ++
            llmSel.map(s => "LLM" -> s).toVector
        val scored = perMethod.map { case (m, sel) =>
          (m,
           DiversityMetrics.averageDiversity(queryEmb, sel),
           DiversityMetrics.minDiversity(queryEmb, sel))
        }
        Table2Experiment.winners(scored.map(r => (r._1, r._2))).foreach(m => avgWins(m) += 1)
        Table2Experiment.winners(scored.map(r => (r._1, r._3))).foreach(m => minWins(m) += 1)

        mapSum += UnionSearch.averagePrecision(q,
          UnionSearch.rankTables(q, bench, ColumnEmbedders.dustDefault, tfidf).map(_.table))
        n += 1
      }
    }
    val methods = Vector(("Starmie", true), ("LLM", includeLlm), ("DUST", true))
    BenchResult(bench.name,
      methods.map { case (m, inc) =>
        MethodResult(m, if (inc) avgWins(m) else -1, if (inc) minWins(m) else -1, inc)
      },
      mapSum / math.max(1, n), n)
  }

  def render(rs: Seq[BenchResult]): String = {
    val header = Seq("Method") ++ rs.flatMap(r => Seq(s"${r.benchmark} #Avg", s"${r.benchmark} #Min"))
    val methodNames = rs.head.results.map(_.method)
    val lines = methodNames.map { m =>
      Seq(m) ++ rs.flatMap { r =>
        val mr = r.results.find(_.method == m).get
        if (!mr.included) Seq("-", "-") else Seq(mr.avgWins.toString, mr.minWins.toString)
      }
    }
    Fmt.table(header, lines)
  }
}
