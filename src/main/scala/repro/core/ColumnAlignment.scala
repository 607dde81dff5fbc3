package repro.core

import repro.cluster.{Hac, Silhouette}
import repro.data.SimpleTable
import repro.embed.{ColumnEmbedder, TfIdf}
import repro.search.UnionSearch
import repro.util.VecOps

/** Holistic column alignment (§3.3, Appendix A.1.1).
  *
  * All columns of the query and the discovered unionable tables are embedded,
  * clustered with constrained agglomerative clustering (columns of one table
  * never share a cluster), the cluster count is chosen by silhouette, and
  * clusters without a query column are discarded. Also implements the
  * per-table maximum-weight bipartite matcher used as the Starmie (B)
  * baseline, and the pairwise P/R/F1 evaluation of §6.2.2.
  */
object ColumnAlignment {

  /** Identity of a physical column. */
  final case class ColKey(table: String, colIdx: Int)

  /** One kept cluster: a query column plus the lake columns aligned to it. */
  final case class AlignedCluster(queryCol: Int, members: Vector[ColKey])

  /** Alignment of a set of lake tables to one query. */
  final case class Aligned(queryName: String, clusters: Vector[AlignedCluster]) {
    /** queryColIdx → (tableName → lake colIdx); at most one col per table. */
    def lookup: Map[Int, Map[String, Int]] =
      clusters.map { c =>
        c.queryCol -> c.members.map(m => m.table -> m.colIdx).toMap
      }.toMap
  }

  private final case class Col(key: ColKey, tableIdx: Int, isQuery: Boolean)

  private def allCols(query: SimpleTable, tables: Seq[SimpleTable]): Vector[Col] = {
    val q = query.cols.indices.map(j => Col(ColKey(query.name, j), 0, isQuery = true))
    val t = tables.zipWithIndex.flatMap { case (tab, ti) =>
      tab.cols.indices.map(j => Col(ColKey(tab.name, j), ti + 1, isQuery = false))
    }
    (q ++ t).toVector
  }

  /** Holistic alignment: UPGMA with one cannot-link group per table, cut at
    * the silhouette-best cluster count.
    */
  def alignHolistic(query: SimpleTable, tables: Seq[SimpleTable],
                    embedder: ColumnEmbedder, tfidf: TfIdf): Aligned = {
    val cols = allCols(query, tables)
    val embs = tfidf.columnEmbeddings(embedder, query +: tables).flatten
    require(cols.length == embs.length, "column/embedding arity mismatch")
    val d = Hac.distMatrix(embs, VecOps.euclidean)
    val den = Hac.upgma(d, cols.map(_.tableIdx).toArray)
    // Candidate cluster counts: every achievable level with >= 2 clusters.
    val ks = math.max(2, den.minK) to cols.length
    val labels =
      if (ks.isEmpty) Array.range(0, cols.length)
      else den.cut(Silhouette.bestCut(d, den, ks))
    val byCluster = cols.indices.groupBy(labels(_))
    val kept = byCluster.values.toVector.flatMap { members =>
      members.find(cols(_).isQuery).map { qi =>
        AlignedCluster(
          cols(qi).key.colIdx,
          members.filterNot(_ == qi).map(cols(_).key).toVector,
        )
      }
    }
    Aligned(query.name, kept.sortBy(_.queryCol))
  }

  /** Starmie (B): per-table greedy maximum-weight bipartite matching of lake
    * columns to query columns (no threshold — every column finds a partner
    * if one is free, which is what costs it precision).
    */
  def alignBipartite(query: SimpleTable, tables: Seq[SimpleTable],
                     embedder: ColumnEmbedder, tfidf: TfIdf): Aligned = {
    val embs = tfidf.columnEmbeddings(embedder, query +: tables)
    val qEmb = embs.head
    val perQuery = Array.fill(query.nCols)(Vector.newBuilder[ColKey])
    tables.zip(embs.tail).foreach { case (t, tEmb) =>
      UnionSearch.greedyMatch(qEmb.size, tEmb.size)((qj, tj) => VecOps.cosineSim(qEmb(qj), tEmb(tj)))
        .foreach { case (_, qj, tj) => perQuery(qj) += ColKey(t.name, tj) }
    }
    Aligned(query.name,
      query.cols.indices.map(qj => AlignedCluster(qj, perQuery(qj).result())).toVector)
  }

  // ---------------------------------------------------------------------
  // Evaluation (§6.2.2): pairwise precision / recall / F1.
  // ---------------------------------------------------------------------

  final case class Prf(precision: Double, recall: Double, f1: Double)

  private def pairKey(a: ColKey, b: ColKey): (String, String) = {
    val ka = s"${a.table}#${a.colIdx}"; val kb = s"${b.table}#${b.colIdx}"
    if (ka <= kb) (ka, kb) else (kb, ka)
  }

  private def clusterPairs(queryCol: ColKey, members: Seq[ColKey]): Set[(String, String)] =
    if (members.isEmpty) Set((s"alone:${queryCol.table}#${queryCol.colIdx}", ""))
    else {
      val all = queryCol +: members.toVector
      (for { i <- all.indices; j <- (i + 1) until all.length } yield pairKey(all(i), all(j))).toSet
    }

  /** Ground truth from generator provenance: a lake column aligns with the
    * query column sharing its `baseCol` (tables are same-base by input).
    */
  def groundTruthPairs(query: SimpleTable, tables: Seq[SimpleTable]): Set[(String, String)] =
    query.cols.indices.flatMap { qj =>
      val bc = query.cols(qj).baseCol
      val members = tables.flatMap { t =>
        t.cols.indices.filter(t.cols(_).baseCol == bc).map(j => ColKey(t.name, j))
      }
      clusterPairs(ColKey(query.name, qj), members)
    }.toSet

  def predictedPairs(aligned: Aligned): Set[(String, String)] =
    aligned.clusters.flatMap { c =>
      clusterPairs(ColKey(aligned.queryName, c.queryCol), c.members)
    }.toSet

  def evaluate(aligned: Aligned, query: SimpleTable, tables: Seq[SimpleTable]): Prf = {
    val gt = groundTruthPairs(query, tables)
    val pred = predictedPairs(aligned)
    val hit = (gt & pred).size.toDouble
    val p = if (pred.isEmpty) 0.0 else hit / pred.size
    val r = if (gt.isEmpty) 0.0 else hit / gt.size
    val f1 = if (p + r == 0.0) 0.0 else 2 * p * r / (p + r)
    Prf(p, r, f1)
  }
}
