package repro.exp

import repro.data.{Generators, LakeBenchmark}

/** Fig 5 — benchmark statistics table (#tables/#columns/#tuples for query
  * and lake sides, plus average unionable tables per query).
  */
object Fig5Stats {

  final case class Row(
      benchmark: String,
      qTables: Int, qColumns: Int, qTuples: Long,
      dTables: Int, dColumns: Int, dTuples: Long,
      avgUnionable: Double,
  )

  def row(b: LakeBenchmark): Row = Row(
    b.name,
    b.queries.size, b.nQueryColumns, b.nQueryTuples,
    b.lake.size, b.nLakeColumns, b.nLakeTuples,
    b.avgUnionablePerQuery,
  )

  def all(): Vector[Row] =
    Vector(Generators.tusLite, Generators.tusSampledLite, Generators.santosLite, Generators.ugenLite).map(row)

  def render(rows: Seq[Row]): String = Fmt.table(
    Seq("Benchmark", "Q#Tables", "Q#Cols", "Q#Tuples", "DL#Tables", "DL#Cols", "DL#Tuples", "AvgUnionable/Query"),
    rows.map(r => Seq(r.benchmark, r.qTables.toString, r.qColumns.toString, r.qTuples.toString,
                      r.dTables.toString, r.dColumns.toString, r.dTuples.toString, Fmt.f2(r.avgUnionable))),
  )
}
