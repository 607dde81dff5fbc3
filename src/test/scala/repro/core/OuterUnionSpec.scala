package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Generators
import repro.embed.ColumnEmbedders
import repro.exp.Benchmarks

class OuterUnionSpec extends AnyFunSuite {
  private lazy val bench = Generators.ugenLite
  private lazy val tfidf = Benchmarks.tfidfFor(bench)
  private lazy val q = bench.queries.head
  private lazy val tables = bench.unionableFor(q).take(3)
  private lazy val aligned = ColumnAlignment.alignHolistic(q, tables, ColumnEmbedders.dustDefault, tfidf)
  private lazy val tuples = OuterUnion.union(q, tables, aligned)

  test("one unionable tuple per lake row with an aligned value") {
    val lookup = aligned.lookup
    val expected = tables.map { t =>
      val cols = q.cols.indices.flatMap(qj => lookup.get(qj).flatMap(_.get(t.name)))
      t.rows.count(row => cols.exists(row(_).isDefined))
    }.sum
    assert(expected > 0 && tuples.size == expected)
  }

  test("tuple ids are unique and dense") {
    assert(tuples.map(_.id) == tuples.indices.map(_.toLong).toVector)
  }

  test("values vector has query arity with null pads") {
    tuples.foreach(t => assert(t.values.length == q.nCols))
  }

  test("pairs use query headers only, in query column order") {
    val qHeaders = q.headers
    tuples.foreach { t =>
      assert(t.pairs.forall { case (h, _) => qHeaders.contains(h) })
      val order = t.pairs.map { case (h, _) => qHeaders.indexOf(h) }
      assert(order == order.sorted)
    }
  }

  test("pairs skip null pads (Example 4 semantics)") {
    tuples.foreach(t => assert(t.pairs.size == t.values.count(_.isDefined)))
  }

  test("provenance points back to real rows") {
    tuples.foreach { t =>
      val table = tables.find(_.name == t.table).get
      assert(t.rowId >= 0 && t.rowId < table.nRows)
      assert(t.baseRowId == table.baseRowIds(t.rowId))
    }
  }

  test("aligned values match the source table cell") {
    val lookup = aligned.lookup
    tuples.take(50).foreach { t =>
      val table = tables.find(_.name == t.table).get
      q.cols.indices.foreach { qj =>
        lookup.get(qj).flatMap(_.get(t.table)) match {
          case Some(j) => assert(t.values(qj) == table.rows(t.rowId)(j))
          case None    => assert(t.values(qj).isEmpty)
        }
      }
    }
  }

  test("a table that aligns no column contributes no tuple, and ids stay dense") {
    val unaligned = bench.lake.find(t => !tables.exists(_.name == t.name)).get
    assert(aligned.lookup.values.forall(!_.contains(unaligned.name)))
    assert(OuterUnion.union(q, unaligned +: tables, aligned) == tuples)
    assert(OuterUnion.union(q, tables :+ unaligned, aligned) == tuples)
    assert(tuples.forall(_.pairs.nonEmpty))
  }

  test("queryTuples mirrors the query rows") {
    val qt = OuterUnion.queryTuples(q)
    assert(qt.size == q.nRows)
    assert(qt.head.pairs == q.rowPairs(0))
  }
}
