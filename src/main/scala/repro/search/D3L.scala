package repro.search

import repro.data.{LakeBenchmark, SimpleTable, Tokenizer}
import repro.embed.{ColumnLevelEmbedder, HashLm, TfIdf}
import repro.util.VecOps

/** D3L (Bogatu et al. [2]): related-table search aggregating several
  * column-level evidence signals — header-name similarity, value overlap,
  * word-embedding similarity, and format (character-class histogram)
  * similarity. Per pair of best-matching columns the four signals are
  * averaged; per table pair the matched column scores are averaged.
  */
object D3L {

  private[search] val embedder = ColumnLevelEmbedder(HashLm.fastText)

  /** Jaccard overlap of value sets. */
  private[search] def valueOverlap(a: Seq[String], b: Seq[String]): Double = {
    val sa = a.toSet; val sb = b.toSet
    if (sa.isEmpty && sb.isEmpty) 0.0
    else (sa & sb).size.toDouble / (sa | sb).size
  }

  /** Jaccard overlap of header token sets. */
  private[search] def nameSim(h1: String, h2: String): Double =
    valueOverlap(Tokenizer.tokens(h1), Tokenizer.tokens(h2))

  /** Cosine of character-class histograms (letters/digits/space/other ×
    * length buckets) — D3L's regex/format signal.
    */
  private[search] def formatSim(a: Seq[String], b: Seq[String]): Double = {
    def hist(vs: Seq[String]): Array[Double] = {
      val h = new Array[Double](8)
      vs.foreach { v =>
        v.foreach { ch =>
          if (ch.isDigit) h(0) += 1
          else if (ch.isLetter) h(1) += 1
          else if (ch.isWhitespace) h(2) += 1
          else h(3) += 1
        }
        h(4 + math.min(3, v.length / 8)) += 1
      }
      h
    }
    VecOps.cosineSim(hist(a), hist(b))
  }

  /** Aggregate column-pair score (mean of the four signals). */
  def columnScore(q: SimpleTable, qj: Int, t: SimpleTable, tj: Int,
                  qEmb: Array[Double], tEmb: Array[Double]): Double = {
    val vq = q.columnValues(qj); val vt = t.columnValues(tj)
    val sigs = Vector(
      nameSim(q.cols(qj).header, t.cols(tj).header),
      valueOverlap(vq, vt),
      math.max(0.0, VecOps.cosineSim(qEmb, tEmb)),
      formatSim(vq, vt),
    )
    sigs.sum / sigs.size
  }

  /** D3L's ranking: [[UnionSearch.rankLake]] over [[columnScore]]. */
  def rankTables(query: SimpleTable, bench: LakeBenchmark, tfidf: TfIdf): Vector[UnionSearch.Scored] =
    UnionSearch.rankLake(query, bench, embedder, tfidf)((t, qe, te) => (i, j) => columnScore(query, i, t, j, qe(i), te(j)))
}
