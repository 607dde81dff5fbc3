package repro.core

import repro.data.SimpleTable

/** Outer union of aligned unionable tables into one set of unionable tuples
  * (§3.3): lake columns aligned to a query column adopt its header; query
  * columns missing from a table are padded with nulls (the paper's `nan`).
  */
object OuterUnion {

  /** One unionable lake tuple with provenance. */
  final case class UnionTuple(
      id: Long,
      table: String,
      rowId: Int,
      baseRowId: Int,
      /** (query header, value) pairs in query column order, nulls skipped. */
      pairs: Vector[(String, String)],
      /** Values in query column order with null pads (display form). */
      values: Vector[Option[String]],
  )

  /** Outer-union `tables` against the query using `aligned`. A row with no
    * value in an aligned column (empty `pairs`) is left out: it carries none
    * of the query's columns, and its zero embedding would otherwise be the
    * most novel tuple of all. Tuple ids are positions in the returned vector.
    */
  def union(query: SimpleTable, tables: Seq[SimpleTable], aligned: ColumnAlignment.Aligned): Vector[UnionTuple] = {
    val lookup = aligned.lookup // queryColIdx -> table -> lake colIdx
    val queryCols = query.cols.indices.toVector
    var nextId = 0L
    val out = Vector.newBuilder[UnionTuple]
    tables.foreach { t =>
      val colOf: Vector[Option[Int]] =
        queryCols.map(qj => lookup.get(qj).flatMap(_.get(t.name)))
      t.rows.indices.foreach { i =>
        val values = colOf.map(_.flatMap(j => t.rows(i)(j)))
        val pairs = queryCols.flatMap { qj =>
          values(qj).map(v => (query.cols(qj).header, v))
        }
        if (pairs.nonEmpty) {
          out += UnionTuple(nextId, t.name, i, t.baseRowIds(i), pairs, values)
          nextId += 1
        }
      }
    }
    out.result()
  }

  /** The query's own tuples in the same (header, value) form. */
  def queryTuples(query: SimpleTable): Vector[UnionTuple] =
    query.rows.indices.toVector.map { i =>
      UnionTuple(i.toLong, query.name, i, query.baseRowIds(i), query.rowPairs(i), query.rows(i))
    }
}
