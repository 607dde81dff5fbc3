package repro.embed

import repro.data.SimpleTable
import repro.util.VecOps

/** Column embedding strategies evaluated in Table 1 (§6.2.3).
  *
  *  - Cell-level: each cell embedded independently, then averaged. The cell
  *    LM sees one cell at a time, so its effective context strength is
  *    reduced (α·0.6) — the paper's explanation for why cell-level trails
  *    column-level ("receives tokens only from one cell at a time").
  *  - Column-level: the 512 most representative tokens by TF-IDF embedded
  *    together with TF-IDF weights (common tokens down-weighted).
  *  - Starmie: column-level embedding contaminated with the table's mean
  *    embedding — Starmie encodes each column *with the context of the whole
  *    table* (§6.2.4), which is exactly what hurts it for alignment.
  */
sealed trait ColumnEmbedder {
  def name: String

  /** One embedding per column of each table, computed afresh. A token
    * repeated anywhere in `tables` is embedded once. Pipeline stages read
    * embeddings through the lake's index, [[TfIdf.columnEmbeddings]], which
    * calls this for the tables it has not seen. All columns are one batch
    * call ([[ColumnEmbedder.perColumn]], [[HashLm.batch]]).
    */
  def embedAll(tables: Seq[SimpleTable], tfidf: TfIdf): Vector[Vector[Array[Double]]]

  /** One embedding per column of `table`, computed afresh; dustbench's `TracedQuery.kernels` times it. */
  def embedAll(table: SimpleTable, tfidf: TfIdf): Vector[Array[Double]] =
    embedAll(Vector(table), tfidf).head
}

object ColumnEmbedder {

  /** `embed(tokens, table, j)` for every column j of every table, as one
    * batch call of `lm` ([[HashLm.batch]]) over (table, column), grouped
    * back per table, in order.
    */
  private[embed] def perColumn(lm: HashLm, tables: Seq[SimpleTable])(
      embed: (HashLm.TokenTable, SimpleTable, Int) => Array[Double]): Vector[Vector[Array[Double]]] = {
    val ts = tables.toVector
    val cells = ts.flatMap(t => t.cols.indices.map(j => (t, j)))
    val embs = lm.batch(cells.size) { (tokens, c) => val (t, j) = cells(c); embed(tokens, t, j) }
    val starts = ts.scanLeft(0)(_ + _.nCols)
    ts.indices.toVector.map(i => embs.slice(starts(i), starts(i + 1)).toVector)
  }
}

/** Cell-level variant of a language / word model. */
final case class CellLevelEmbedder(lm: HashLm) extends ColumnEmbedder {
  val name = s"Cell-level ${lm.name}"
  private val cellLm = lm.copy(alpha = lm.alpha * 0.6)

  def embedAll(tables: Seq[SimpleTable], tfidf: TfIdf): Vector[Vector[Array[Double]]] =
    ColumnEmbedder.perColumn(cellLm, tables) { (tokens, table, j) =>
      val cells = table.columnValues(j)
      if (cells.isEmpty) new Array[Double](HashLm.Dim)
      else VecOps.normalize(VecOps.mean(cells.map(tokens.embedText)))
    }
}

/** Column-level variant: TF-IDF top-512 tokens, weighted pooling. */
final case class ColumnLevelEmbedder(lm: HashLm) extends ColumnEmbedder {
  val name = s"Column-level ${lm.name}"

  def embedAll(tables: Seq[SimpleTable], tfidf: TfIdf): Vector[Vector[Array[Double]]] =
    ColumnEmbedder.perColumn(lm, tables) { (tokens, table, j) =>
      val top = tfidf.topTokens(table.columnValues(j))
      tokens.embedWeighted(top.map(_._1), top.map(_._2))
    }
}

/** Starmie-style contextualized column embeddings: each column is mixed
  * with an attention-like, column-specific combination of its sibling
  * columns (contrastive training contextualizes every column against the
  * *whole* table, §6.2.4). The mixing weights depend on (table, column), so
  * the pollution is non-uniform — which is what breaks both bipartite
  * matching and holistic clustering on Starmie embeddings in Table 1.
  */
final case class StarmieEmbedder() extends ColumnEmbedder {
  val name = "Starmie"
  /** Weight of the sibling-column mixture in each contextualized column. */
  private val beta = 0.6
  private val inner = ColumnLevelEmbedder(HashLm.starmieBase)

  def embedAll(tables: Seq[SimpleTable], tfidf: TfIdf): Vector[Vector[Array[Double]]] =
    tables.toVector.zip(inner.embedAll(tables, tfidf)).map { case (table, per) => contextualize(table, per) }

  private def contextualize(table: SimpleTable, per: Vector[Array[Double]]): Vector[Array[Double]] =
    per.indices.toVector.map { j =>
      val e = per(j)
      val v = new Array[Double](e.length)
      VecOps.addInPlace(v, e, 1.0 - beta)
      if (per.length > 1) {
        val rng = new repro.util.Rng(repro.util.Rng.mix(
          repro.util.Rng.hashString(table.name), j.toLong))
        val ws = per.indices.map(l => if (l == j) 0.0 else rng.nextDouble())
        val total = ws.sum
        per.indices.foreach { l =>
          if (l != j) VecOps.addInPlace(v, per(l), beta * ws(l) / total)
        }
      }
      VecOps.normalize(v)
    }
}

object ColumnEmbedders {
  /** DUST's production choice (§6.2.4): Column-level RoBERTa. */
  val dustDefault: ColumnEmbedder = ColumnLevelEmbedder(HashLm.roberta)
}
