package repro.search

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ColumnAlignment, OuterUnion}
import repro.data.Generators
import repro.embed.ColumnEmbedders
import repro.exp.Benchmarks

class TupleSearchSpec extends AnyFunSuite {
  private lazy val bench = Generators.ugenLite
  private lazy val tfidf = Benchmarks.tfidfFor(bench)
  private lazy val q = bench.queries.head
  private lazy val tables = bench.unionableFor(q)
  private lazy val aligned = ColumnAlignment.alignHolistic(q, tables, ColumnEmbedders.dustDefault, tfidf)
  private lazy val lakeTuples = OuterUnion.union(q, tables, aligned)
  private lazy val queryTuples = OuterUnion.queryTuples(q)

  test("topK returns exactly k tuples") {
    assert(TupleSearch.topK(lakeTuples, queryTuples, 7).size == 7)
  }

  test("topK favors near-duplicates of query rows (the redundancy failure)") {
    val top = TupleSearch.topK(lakeTuples, queryTuples, 10)
    val qRows = queryTuples.map(_.baseRowId).toSet
    val dupFrac = top.count(t => qRows.contains(t.baseRowId)).toDouble / top.size
    // The base rate is over every row of the unionable tables: the union
    // leaves out the rows of tables that aligned no column.
    val rows = tables.flatMap(_.baseRowIds)
    val lakeDupFrac = rows.count(qRows.contains).toDouble / rows.size
    assert(dupFrac >= lakeDupFrac, s"top dup frac $dupFrac vs lake $lakeDupFrac")
  }

  test("ranking is deterministic") {
    val a = TupleSearch.topK(lakeTuples, queryTuples, 5).map(_.id)
    val b = TupleSearch.topK(lakeTuples, queryTuples, 5).map(_.id)
    assert(a == b)
  }
}
