package repro.exp

import repro.core.{Dust, OuterUnion}
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

  /** The case study's query columns. */
  private val Columns: Seq[String] = Seq("title", "language", "filming_locations")

  /** Set-union semantics (§6.6): duplicates among the retrieved tuples are
    * removed, but tuples that happen to replicate query rows stay — they
    * simply add no novel values.
    */
  private def dedup(tuples: Vector[OuterUnion.UnionTuple]): Vector[OuterUnion.UnionTuple] = {
    val seen = scala.collection.mutable.HashSet.empty[Vector[Option[String]]]
    tuples.filter(t => seen.add(t.values))
  }

  /** Every method's novel values at k = 20, 40 and 60. */
  def run(): Vector[Row] = {
    val (query, lake) = Generators.imdbLite
    val bench = LakeBenchmark("IMDB-lite", Vector(query), lake)
    val tfidf = TfIdf.fit(lake :+ query)

    // One prepared union over the full (unionable-only) lake: its alignment
    // serves the baselines, its embeddings DUST's selection at every k.
    val prepared = Dust.prepare(query, lake, Models.dustRoberta, tfidf)
    // Each baseline bag-unions its ranking in rank order (SQL LIMIT k takes a prefix).
    val baselines = Vector(
      "D3L" -> D3L.rankTables(query, bench, tfidf),
      "Starmie" -> UnionSearch.rankTables(query, bench, ColumnEmbedders.dustDefault, tfidf),
    ).flatMap { case (m, ranked) =>
      val all = OuterUnion.union(query, ranked.map(_.table), prepared.aligned)
      Vector(m -> all, s"$m-D" -> dedup(all))
    }
    val colIdx = Columns.map(c => c -> query.cols.indexWhere(_.header == c)).toMap
    require(colIdx.values.forall(_ >= 0), s"missing case-study columns in ${query.name}")

    Vector(20, 40, 60).flatMap { k =>
      val methodTuples = baselines.map { case (m, all) => m -> all.take(k) } :+
        ("DUST" -> Dust.diversify(prepared, Dust.Config(k = k)).selected)
      for {
        (m, tuples) <- methodTuples
        c <- Columns
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
