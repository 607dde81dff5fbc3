package repro.search

import repro.data.{LakeBenchmark, SimpleTable}
import repro.embed.{ColumnEmbedder, TfIdf}
import repro.util.VecOps

/** Starmie-style table union search (Fan et al. [11], §3.3): rank lake
  * tables by the maximum-weight bipartite matching score between their
  * column embeddings and the query's. Because scoring is pure similarity,
  * near-copies of the query rank on top — the redundancy DUST addresses.
  */
object UnionSearch {

  final case class Scored(table: SimpleTable, score: Double)

  /** Greedy maximum-weight bipartite matching of `nq` query columns to `nt`
    * table columns under `score(qj, tj)`: pairs in descending score, ties by
    * (qj, tj), each column used at most once. Returns the accepted
    * (score, qj, tj) in the order they were accepted.
    */
  def greedyMatch(nq: Int, nt: Int)(score: (Int, Int) => Double): Vector[(Double, Int, Int)] = {
    val scored = for {
      qj <- 0 until nq
      tj <- 0 until nt
    } yield (score(qj, tj), qj, tj)
    val usedQ = new Array[Boolean](nq)
    val usedT = new Array[Boolean](nt)
    val accepted = Vector.newBuilder[(Double, Int, Int)]
    scored.sortBy { case (s, qj, tj) => (-s, qj, tj) }.foreach { case m @ (_, qj, tj) =>
      if (!usedQ(qj) && !usedT(tj)) {
        usedQ(qj) = true; usedT(tj) = true
        accepted += m
      }
    }
    accepted.result()
  }

  /** Greedy matching score, normalized by the number of query columns. */
  def unionabilityScore(qEmb: Vector[Array[Double]], tEmb: Vector[Array[Double]]): Double = {
    if (qEmb.isEmpty || tEmb.isEmpty) return 0.0
    greedyMatch(qEmb.size, tEmb.size)((qj, tj) => VecOps.cosineSim(qEmb(qj), tEmb(tj)))
      .foldLeft(0.0)(_ + _._1) / qEmb.size
  }

  /** Rank the whole lake against a query; descending score. Column
    * embeddings come from the lake's index, so only the first query on a
    * lake embeds it.
    */
  def rankTables(query: SimpleTable, bench: LakeBenchmark,
                 embedder: ColumnEmbedder, tfidf: TfIdf): Vector[Scored] = {
    val embs = tfidf.columnEmbeddings(embedder, query +: bench.lake)
    bench.lake.zip(embs.tail)
      .map { case (t, tEmb) => Scored(t, unionabilityScore(embs.head, tEmb)) }
      .sortBy(s => (-s.score, s.table.name))
  }

  /** Top-N unionable tables (the `SearchTables` step of Algorithm 1). */
  def searchTables(query: SimpleTable, bench: LakeBenchmark, topN: Int,
                   embedder: ColumnEmbedder, tfidf: TfIdf): Vector[SimpleTable] =
    rankTables(query, bench, embedder, tfidf).take(topN).map(_.table)

  /** Mean Average Precision of a ranking against same-base ground truth —
    * used to report search quality alongside Table 3 (§6.5.2).
    */
  def averagePrecision(query: SimpleTable, ranked: Seq[SimpleTable]): Double = {
    val relevantTotal = ranked.count(_.baseId == query.baseId)
    if (relevantTotal == 0) return 0.0
    var hits = 0; var sum = 0.0
    ranked.zipWithIndex.foreach { case (t, i) =>
      if (t.baseId == query.baseId) { hits += 1; sum += hits.toDouble / (i + 1) }
    }
    sum / relevantTotal
  }
}
