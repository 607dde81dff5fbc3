package repro.exp

import repro.core.ColumnAlignment
import repro.data.{Generators, LakeBenchmark}
import repro.embed.{CellLevelEmbedder, ColumnEmbedder, ColumnLevelEmbedder, HashLm, StarmieEmbedder}

/** Table 1 — column alignment effectiveness: P/R/F1 of ten embedding
  * configurations on three benchmarks (§6.2). Per query, the input to
  * alignment is the query's ground-truth unionable tables (the output of the
  * search step in the pipeline); scores are averaged over queries.
  * Also reports per-query alignment time (§6.2.5), which includes
  * embedding the query's and its tables' columns: each query is aligned on
  * an empty column-embedding index, as on a lake no query has touched.
  */
object Table1Experiment {

  final case class Row(serialization: String, model: String, benchmark: String,
                       p: Double, r: Double, f1: Double, avgTimeMs: Double)

  /** Method descriptors: (row group, display name, embedder, bipartite?). */
  final case class Method(group: String, display: String, embedder: ColumnEmbedder, bipartite: Boolean)

  /** Table 1's rows, in the paper's order: the one list of its embedders.
    * Starmie (B) and (H) share one embedder.
    */
  val methods: Vector[Method] = {
    val starmie = StarmieEmbedder()
    Vector(
      Method("Cell-level", "FastText", CellLevelEmbedder(HashLm.fastText), bipartite = false),
      Method("Cell-level", "Glove", CellLevelEmbedder(HashLm.glove), bipartite = false),
      Method("Cell-level", "BERT", CellLevelEmbedder(HashLm.bert), bipartite = false),
      Method("Cell-level", "RoBERTa", CellLevelEmbedder(HashLm.roberta), bipartite = false),
      Method("Cell-level", "sBERT", CellLevelEmbedder(HashLm.sbert), bipartite = false),
      Method("Column-level", "BERT", ColumnLevelEmbedder(HashLm.bert), bipartite = false),
      Method("Column-level", "RoBERTa", ColumnLevelEmbedder(HashLm.roberta), bipartite = false),
      Method("Column-level", "sBERT", ColumnLevelEmbedder(HashLm.sbert), bipartite = false),
      Method("Table context", "Starmie (B)", starmie, bipartite = true),
      Method("Table context", "Starmie (H)", starmie, bipartite = false),
    )
  }

  def evalMethod(m: Method, bench: LakeBenchmark): Row = {
    val tfidf = Benchmarks.tfidfFor(bench)
    var sp = 0.0; var sr = 0.0; var sf = 0.0; var totalNs = 0L
    var n = 0
    bench.queries.foreach { q =>
      val tables = bench.unionableFor(q)
      if (tables.nonEmpty) {
        val cold = tfidf.withEmptyIndex()
        val (aligned, ns) = Fmt.timed {
          if (m.bipartite) ColumnAlignment.alignBipartite(q, tables, m.embedder, cold)
          else ColumnAlignment.alignHolistic(q, tables, m.embedder, cold)
        }
        val prf = ColumnAlignment.evaluate(aligned, q, tables)
        sp += prf.precision; sr += prf.recall; sf += prf.f1; totalNs += ns
        n += 1
      }
    }
    require(n > 0, s"benchmark ${bench.name} has no queries with unionable tables")
    Row(m.group, m.display, bench.name, sp / n, sr / n, sf / n, totalNs / 1e6 / n)
  }

  /** Every method on TUS-Sampled-lite, SANTOS-lite and UGEN-lite, in that order. */
  def run(): Vector[Row] =
    Vector(Generators.tusSampledLite, Generators.santosLite, Generators.ugenLite)
      .flatMap(b => methods.map(evalMethod(_, b)))

  /** The P/R/F1 table, then each benchmark's mean per-query alignment time. */
  def render(rows: Seq[Row]): String = {
    val benches = rows.map(_.benchmark).distinct
    val header = Seq("Serialization", "Model") ++
      benches.flatMap(b => Seq(s"$b P", s"$b R", s"$b F1"))
    val lines = methods.map { m =>
      val cells = benches.flatMap { b =>
        val r = rows.find(x => x.benchmark == b && x.model == m.display && x.serialization == m.group).get
        Seq(Fmt.f2(r.p), Fmt.f2(r.r), Fmt.f2(r.f1))
      }
      Seq(m.group, m.display) ++ cells
    }
    val times = benches.map { b =>
      val rs = rows.filter(_.benchmark == b)
      f"$b=${rs.map(_.avgTimeMs).sum / rs.size}%.1f"
    }
    Fmt.table(header, lines) + "\nAverage per-query alignment time (ms) by benchmark: " + times.mkString(", ")
  }
}
