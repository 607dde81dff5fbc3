package repro.search

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Generators
import repro.embed.ColumnEmbedders
import repro.exp.Benchmarks

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

  test("unionabilityScore of a table with itself is maximal") {
    val e = embedder.embedAll(Vector(q), tfidf).head
    val self = UnionSearch.unionabilityScore(e, e)
    val other = UnionSearch.unionabilityScore(e,
      embedder.embedAll(Vector(bench.lake.find(_.baseId != q.baseId).get), tfidf).head)
    assert(self > other)
  }

  test("unionabilityScore of empty embeddings is 0") {
    assert(UnionSearch.unionabilityScore(Vector.empty, Vector.empty) == 0.0)
  }
}
