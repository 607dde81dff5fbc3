package repro.search

import java.lang.Double.doubleToRawLongBits
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{Generators, LakeBenchmark}
import repro.embed.TfIdf
import repro.exp.Benchmarks

class D3LSpec extends AnyFunSuite {
  private lazy val bench = Generators.ugenLite
  private lazy val tfidf = Benchmarks.tfidfFor(bench)
  private lazy val q = bench.queries.head

  test("valueOverlap is Jaccard") {
    assert(D3L.valueOverlap(Seq("a", "b"), Seq("b", "c")) == 1.0 / 3.0)
  }

  test("valueOverlap of disjoint sets is 0, of identical sets 1") {
    assert(D3L.valueOverlap(Seq("a"), Seq("b")) == 0.0)
    assert(D3L.valueOverlap(Seq("a", "a"), Seq("a")) == 1.0)
  }

  test("valueOverlap of two empties is 0") {
    assert(D3L.valueOverlap(Nil, Nil) == 0.0)
  }

  test("nameSim tokenizes headers") {
    assert(D3L.nameSim("park name", "name of park") == 2.0 / 3.0)
  }

  test("formatSim separates numeric from text columns") {
    val digits = Seq("123", "456", "789")
    val words = Seq("abc", "defg", "hij")
    assert(D3L.formatSim(digits, digits.reverse) > D3L.formatSim(digits, words))
  }

  test("tableScore favors same-base tables") {
    val same = bench.unionableFor(q).head
    val diff = bench.lake.find(_.baseId != q.baseId).get
    val Seq(qEmb, sameEmb, diffEmb) = tfidf.columnEmbeddings(D3L.embedder, Vector(q, same, diff))
    assert(D3L.tableScore(q, qEmb, same, sameEmb) > D3L.tableScore(q, qEmb, diff, diffEmb))
  }

  test("rankTables reads the index once and gives the per-table reads' order and scores, bit for bit") {
    val (imdbQuery, imdbLake) = Generators.imdbLite
    val inputs = Seq(
      (q, bench, TfIdf.fit(bench.lake ++ bench.queries)),
      (imdbQuery, LakeBenchmark("IMDB-lite", Vector(imdbQuery), imdbLake), TfIdf.fit(imdbLake :+ imdbQuery)),
    )
    inputs.foreach { case (query, b, fitted) =>
      // Each lake table scored from its own read of the index.
      val perTable = fitted.withEmptyIndex()
      val reference = b.lake.map { t =>
        val Seq(qEmb, tEmb) = perTable.columnEmbeddings(D3L.embedder, Vector(query, t))
        UnionSearch.Scored(t, D3L.tableScore(query, qEmb, t, tEmb))
      }.sortBy(s => (-s.score, s.table.name))
      val ranked = D3L.rankTables(query, b, fitted.withEmptyIndex())
      assert(ranked.map(_.table.name) == reference.map(_.table.name), b.name)
      assert(ranked.map(s => doubleToRawLongBits(s.score)) == reference.map(s => doubleToRawLongBits(s.score)), b.name)
    }
  }

  test("rankTables is descending and complete") {
    val ranked = D3L.rankTables(q, bench, tfidf)
    assert(ranked.size == bench.lake.size)
    val ss = ranked.map(_.score)
    assert(ss == ss.sortBy(-_))
  }

  test("top result is unionable with the query") {
    assert(D3L.rankTables(q, bench, tfidf).head.table.baseId == q.baseId)
  }
}
