package repro.search

import java.lang.Double.doubleToRawLongBits
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{Generators, LakeBenchmark}
import repro.embed.{ColumnEmbedders, TfIdf}
import repro.exp.Benchmarks
import repro.util.VecOps

class UnionSearchSpec extends AnyFunSuite {
  private lazy val bench = Generators.ugenLite
  private lazy val tfidf = Benchmarks.tfidfFor(bench)
  private lazy val embedder = ColumnEmbedders.dustDefault
  private lazy val q = bench.queries.head
  private lazy val ranked = UnionSearch.rankTables(q, bench, embedder, tfidf)

  test("ranking covers the whole lake, descending by score") {
    assert(ranked.size == bench.lake.size)
    val scores = ranked.map(_.score)
    assert(scores == scores.sortBy(-_))
  }

  test("the top result is a same-base (unionable) table") {
    assert(ranked.head.table.baseId == q.baseId)
  }

  test("the near-copy of the query ranks in the top results (redundancy)") {
    val copyName = s"${bench.name}-dl-copy0"
    val idx = ranked.indexWhere(_.table.name == copyName)
    assert(idx >= 0 && idx < 5, s"near-copy ranked $idx")
  }

  test("searchTables returns topN tables") {
    assert(UnionSearch.searchTables(q, bench, 5, embedder, tfidf).size == 5)
  }

  test("search quality: MAP is well above random") {
    val map = UnionSearch.averagePrecision(q, ranked.map(_.table))
    val relFrac = bench.unionableFor(q).size.toDouble / bench.lake.size
    assert(map > 2 * relFrac, s"MAP $map vs random $relFrac")
  }

  test("averagePrecision of a perfect ranking is 1") {
    val rel = bench.unionableFor(q)
    val rest = bench.lake.filterNot(_.baseId == q.baseId)
    assert(math.abs(UnionSearch.averagePrecision(q, rel ++ rest) - 1.0) < 1e-9)
  }

  test("averagePrecision with no relevant tables is 0") {
    val rest = bench.lake.filterNot(_.baseId == q.baseId)
    assert(UnionSearch.averagePrecision(q, rest.take(3)) == 0.0)
  }

  test("matchScore of a table with itself is maximal") {
    val e = embedder.embedAll(Vector(q), tfidf).head
    val other = embedder.embedAll(Vector(bench.lake.find(_.baseId != q.baseId).get), tfidf).head
    def score(t: Vector[Array[Double]]) =
      UnionSearch.matchScore(e.size, t.size)((qj, tj) => VecOps.cosineSim(e(qj), t(tj)))
    assert(score(e) > score(other))
  }

  test("matchScore is 0 with no query columns or no table columns") {
    val never: (Int, Int) => Double = (_, _) => fail("no column pair to score")
    assert(UnionSearch.matchScore(0, 3)(never) == 0.0)
    assert(UnionSearch.matchScore(3, 0)(never) == 0.0)
    assert(UnionSearch.matchScore(0, 0)(never) == 0.0)
  }

  test("rankTables equals the per-table unionability formula in order and score bits") {
    // Starmie's table score as rankTables computed it before it shared
    // UnionSearch.matchScore with D3L (D3LSpec pins D3L's the same way).
    def unionabilityScore(qEmb: Vector[Array[Double]], tEmb: Vector[Array[Double]]): Double =
      if (qEmb.isEmpty || tEmb.isEmpty) 0.0
      else UnionSearch.greedyMatch(qEmb.size, tEmb.size)((qj, tj) => VecOps.cosineSim(qEmb(qj), tEmb(tj)))
        .foldLeft(0.0)(_ + _._1) / qEmb.size
    val (imdbQuery, imdbLake) = Generators.imdbLite
    for (b <- Seq(Generators.santosLite, Generators.ugenLite, LakeBenchmark("IMDB-lite", Vector(imdbQuery), imdbLake))) {
      val fitted = TfIdf.fit(b.lake ++ b.queries)
      for (query <- b.queries.take(3)) {
        val embs = fitted.columnEmbeddings(embedder, query +: b.lake)
        val reference = b.lake.zip(embs.tail).map { case (t, tEmb) => UnionSearch.Scored(t, unionabilityScore(embs.head, tEmb)) }
          .sortBy(s => (-s.score, s.table.name))
        val ranked = UnionSearch.rankTables(query, b, embedder, fitted)
        assert(ranked.map(_.table.name) == reference.map(_.table.name), s"${b.name} ${query.name}")
        assert(ranked.map(s => doubleToRawLongBits(s.score)) == reference.map(s => doubleToRawLongBits(s.score)),
          s"${b.name} ${query.name}")
      }
    }
  }
}
