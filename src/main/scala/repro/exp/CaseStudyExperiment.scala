package repro.exp

import repro.core.{ColumnAlignment, Dust, OuterUnion}
import repro.data.{Generators, LakeBenchmark, SimpleTable}
import repro.embed.{ColumnEmbedders, TfIdf}
import repro.search.{D3L, UnionSearch}

/** Fig 8 / §6.6 — IMDB case study, reproduced as a table of the same
  * numbers: how many *new* values each method adds to selected query
  * columns as k grows, for D3L, D3L-D, Starmie, Starmie-D and DUST.
  * Baselines bag-union their top tables in rank order and take LIMIT k;
  * the -D variants set-union with duplicate elimination first (§6.6).
  */
object CaseStudyExperiment {

  final case class Row(method: String, k: Int, column: String, novelValues: Int)

  private def novelCount(query: SimpleTable, colIdx: Int,
                         tuples: Seq[OuterUnion.UnionTuple]): Int = {
    val existing = query.columnValues(colIdx).toSet
    tuples.flatMap(_.values(colIdx)).toSet.diff(existing).size
  }

  /** Bag-union tables in rank order until >= k tuples, take first k
    * (SQL LIMIT k); optionally dedup against query+earlier tuples first.
    */
  private def takeK(query: SimpleTable, ranked: Seq[SimpleTable],
                    aligned: ColumnAlignment.Aligned, k: Int,
                    dedup: Boolean): Vector[OuterUnion.UnionTuple] = {
    val all = OuterUnion.union(query, ranked, aligned)
    if (!dedup) all.take(k)
    else {
      // Set-union semantics (§6.6): duplicates among the retrieved tuples
      // are removed, but tuples that happen to replicate query rows stay —
      // they simply add no novel values.
      val seen = scala.collection.mutable.HashSet.empty[Vector[Option[String]]]
      all.filter(t => seen.add(t.values)).take(k)
    }
  }

  def run(ks: Seq[Int], columns: Seq[String] = Seq("title", "language", "filming_locations")): Vector[Row] = {
    val (query, lake) = Generators.imdbLite
    val bench = LakeBenchmark("IMDB-lite", Vector(query), lake)
    val tfidf = TfIdf.fit(lake :+ query)
    val model = Models.dustRoberta
    val embedder = ColumnEmbedders.dustDefault

    val starmieRank = UnionSearch.rankTables(query, bench, embedder, tfidf).map(_.table)
    val d3lRank = D3L.rankTables(query, bench, tfidf).map(_.table)
    // One alignment over the full (unionable-only) lake serves all methods.
    val aligned = ColumnAlignment.alignHolistic(query, lake, embedder, tfidf)
    val colIdx = columns.map(c => c -> query.cols.indexWhere(_.header == c)).toMap
    require(colIdx.values.forall(_ >= 0), s"missing case-study columns in ${query.name}")

    ks.toVector.flatMap { k =>
      val dust = Dust.run(query, bench, model, Dust.Config(topN = lake.size, k = k),
                          Some(tfidf), tablesOverride = Some(lake))
      val methodTuples: Vector[(String, Vector[OuterUnion.UnionTuple])] = Vector(
        "D3L" -> takeK(query, d3lRank, aligned, k, dedup = false),
        "D3L-D" -> takeK(query, d3lRank, aligned, k, dedup = true),
        "Starmie" -> takeK(query, starmieRank, aligned, k, dedup = false),
        "Starmie-D" -> takeK(query, starmieRank, aligned, k, dedup = true),
        "DUST" -> dust.selected,
      )
      for {
        (m, tuples) <- methodTuples
        c <- columns
      } yield Row(m, k, c, novelCount(query, colIdx(c), tuples))
    }
  }

  def render(rows: Seq[Row]): String = {
    val ks = rows.map(_.k).distinct.sorted
    val methods = rows.map(_.method).distinct
    val columns = rows.map(_.column).distinct
    val header = Seq("Column", "Method") ++ ks.map(k => s"k=$k")
    val lines = for { c <- columns; m <- methods } yield
      Seq(c, m) ++ ks.map { k =>
        rows.find(r => r.method == m && r.k == k && r.column == c).map(_.novelValues.toString).getOrElse("-")
      }
    Fmt.table(header, lines)
  }
}
