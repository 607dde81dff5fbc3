package repro.embed

import repro.data.{SimpleTable, Tokenizer}
import repro.util.Par

/** Corpus TF-IDF over columns (documents = columns), used by the
  * column-level embedders to select at most 512 representative tokens per
  * column — the paper's workaround for LM input limits (§6.2.3).
  *
  * A fitted `TfIdf` is the prepared lake, so it also holds the lake's
  * column-embedding index: the embeddings of every table any stage has
  * asked for, per embedder. Like Starmie's offline index, a table's columns
  * are embedded once and every later query reads them (DESIGN.md §6).
  */
final class TfIdf(idf: Map[String, Double], nDocs: Int) {

  /** embedder (by value) → table (by reference; tables are immutable) →
    * its column embeddings. Guarded by its own lock; the embedding work
    * itself runs outside the lock.
    */
  private val index =
    scala.collection.mutable.HashMap.empty[ColumnEmbedder, java.util.IdentityHashMap[SimpleTable, Vector[Array[Double]]]]

  /** Column embeddings of each table, from the index. Tables it has not seen
    * are embedded in one batch (`embedder.embedAll`) and added. Equal to
    * `embedder.embedAll(tables, this)` element for element; the arrays are
    * shared with later callers and must not be mutated. Safe for concurrent
    * use.
    */
  def columnEmbeddings(embedder: ColumnEmbedder, tables: Seq[SimpleTable]): Vector[Vector[Array[Double]]] = {
    val byTable = index.synchronized(index.getOrElseUpdate(embedder, new java.util.IdentityHashMap))
    val missed = byTable.synchronized(tables.filterNot(byTable.containsKey))
    val fresh = if (missed.isEmpty) Vector.empty else embedder.embedAll(missed, this)
    byTable.synchronized {
      missed.zip(fresh).foreach { case (t, e) => byTable.putIfAbsent(t, e) }
      tables.iterator.map(byTable.get).toVector
    }
  }

  /** The same fitted corpus with an empty index, for timing the embedding
    * work a query does on a lake no earlier query has touched.
    */
  def withEmptyIndex(): TfIdf = new TfIdf(idf, nDocs)

  /** IDF of a token; unseen tokens get the max IDF. */
  def idfOf(token: String): Double =
    idf.getOrElse(token, math.log(1.0 + nDocs.toDouble))

  /** Top-[[TfIdf.TokenLimit]] (token, tf·idf weight) pairs of a column,
    * weight-descending; ties broken lexicographically for determinism.
    */
  def topTokens(values: Seq[String]): Vector[(String, Double)] = {
    val toks = Tokenizer.columnTokens(values)
    if (toks.isEmpty) return Vector.empty
    val tf = toks.groupBy(identity).view.mapValues(_.size.toDouble / toks.size).toMap
    tf.map { case (t, f) => (t, f * idfOf(t)) }
      .toVector
      .sortBy { case (t, w) => (-w, t) }
      .take(TfIdf.TokenLimit)
  }
}

object TfIdf {
  /** The paper's LM token limit. */
  val TokenLimit = 512

  /** Fit IDF over all columns of the given tables (queries + lake). Columns
    * are tokenized in parallel; document frequencies are counted serially.
    */
  def fit(tables: Seq[SimpleTable]): TfIdf = {
    val cols = tables.flatMap(t => t.cols.indices.map(j => (t, j))).toIndexedSeq
    val docs = Par.tabulate(cols.size) { c =>
      val (t, j) = cols(c)
      Tokenizer.columnTokens(t.columnValues(j)).toSet
    }
    val n = math.max(1, docs.length)
    val df = scala.collection.mutable.HashMap.empty[String, Int]
    docs.foreach(_.foreach(tok => df.update(tok, df.getOrElse(tok, 0) + 1)))
    val idf = df.iterator.map { case (t, d) => t -> math.log(1.0 + n.toDouble / d) }.toMap
    new TfIdf(idf, n)
  }
}
