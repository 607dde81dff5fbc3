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
final class TfIdf(idf: java.util.HashMap[String, java.lang.Double], nDocs: Int) {

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
  def idfOf(token: String): Double = {
    val d = idf.get(token)
    if (d == null) math.log(1.0 + nDocs.toDouble) else d
  }

  /** Top-[[TfIdf.TokenLimit]] (token, tf·idf weight) pairs of a column,
    * weight-descending; ties broken lexicographically for determinism. A
    * token's weight is `(count / n) * idf` for n tokens in the column.
    */
  def topTokens(values: Seq[String]): Vector[(String, Double)] = {
    val toks = Tokenizer.columnTokens(values)
    if (toks.isEmpty) return Vector.empty
    val counts = new java.util.HashMap[String, Array[Int]]()
    toks.foreach(TfIdf.increment(counts, _))
    val n = toks.size
    val weighted = new Array[(String, Double)](counts.size)
    var i = 0
    counts.forEach { (t, c) => weighted(i) = (t, c(0).toDouble / n * idfOf(t)); i += 1 }
    java.util.Arrays.sort(weighted, TfIdf.ByWeight)
    weighted.iterator.take(TfIdf.TokenLimit).toVector
  }
}

object TfIdf {
  /** The paper's LM token limit. */
  val TokenLimit = 512

  /** [[TfIdf.topTokens]]'s order: the old `sortBy((-w, t))` key, weight
    * descending by `java.lang.Double.compare`, then token ascending.
    */
  private val ByWeight: java.util.Comparator[(String, Double)] = { (a, b) =>
    val byW = java.lang.Double.compare(-a._2, -b._2)
    if (byW != 0) byW else a._1.compareTo(b._1)
  }

  /** Adds one to `token`'s count in `counts`. */
  private def increment(counts: java.util.HashMap[String, Array[Int]], token: String): Unit = {
    val c = counts.get(token)
    if (c == null) counts.put(token, Array(1)) else c(0) += 1
  }

  /** Fit IDF over all columns of the given tables (queries + lake). Columns
    * are tokenized in parallel into their distinct tokens; document
    * frequencies are counted serially. The IDF map is sized to the
    * vocabulary, as it is kept for the lake's lifetime.
    */
  def fit(tables: Seq[SimpleTable]): TfIdf = {
    val cols = tables.flatMap(t => t.cols.indices.map(j => (t, j))).toIndexedSeq
    val docs = Par.tabulate(cols.size) { c =>
      val (t, j) = cols(c)
      val distinct = new java.util.HashSet[String]()
      Tokenizer.columnTokens(t.columnValues(j)).foreach(distinct.add)
      distinct
    }
    val n = math.max(1, docs.length)
    val df = new java.util.HashMap[String, Array[Int]]()
    docs.foreach(_.forEach(increment(df, _)))
    val idf = new java.util.HashMap[String, java.lang.Double](df.size * 4 / 3 + 1)
    df.forEach((t, d) => idf.put(t, math.log(1.0 + n.toDouble / d(0))))
    new TfIdf(idf, n)
  }
}
