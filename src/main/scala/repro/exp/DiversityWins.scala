package repro.exp

import repro.core.DiversityMetrics.Diversity

/** Per-query diversity wins, the measure of Tables 2 and 3 (§6.4, §6.5):
  * on each query every method's selection is scored by Eq. (1) and Eq. (2),
  * and each method at the top of a measure wins that query on it.
  */
object DiversityWins {

  /** One method's row: the queries it wins on Average (Eq. 1) and Min
    * (Eq. 2) Diversity, and its mean time per query when it was timed.
    * A method that selected nothing for any query is not `included` and
    * renders as "-".
    */
  final case class MethodResult(method: String, avgWins: Int, minWins: Int,
                                avgTimeMs: Option[Double], included: Boolean)

  /** One method's selection on one query, scored; `nanos` is its time. */
  final case class Scored(method: String, diversity: Diversity, nanos: Option[Long] = None)

  /** One benchmark's column group of a wins table. */
  trait Table {
    def benchmark: String
    def results: Vector[MethodResult]
  }

  /** Methods whose score is within 1e-12 of the best (all of them win a tie). */
  private def winners(scores: Seq[(String, Double)]): Set[String] = {
    val best = scores.map(_._2).max
    scores.collect { case (m, v) if v >= best - 1e-12 => m }.toSet
  }

  /** One row per method, in `methods` order. `perQuery` holds each query's
    * scored selections; a method absent from a query neither wins nor loses
    * it. Times are averaged over all queries.
    */
  def tally(methods: Seq[String], perQuery: Seq[Seq[Scored]]): Vector[MethodResult] = {
    val avgWinners = perQuery.flatMap(q => winners(q.map(s => s.method -> s.diversity.avg)))
    val minWinners = perQuery.flatMap(q => winners(q.map(s => s.method -> s.diversity.min)))
    val runs = perQuery.flatten.groupBy(_.method)
    methods.toVector.map { m =>
      val ran = runs.getOrElse(m, Seq.empty)
      val nanos = ran.flatMap(_.nanos)
      MethodResult(m, avgWinners.count(_ == m), minWinners.count(_ == m),
        if (nanos.isEmpty) None else Some(nanos.sum / 1e6 / math.max(1, perQuery.size)),
        ran.nonEmpty)
    }
  }

  /** Wins per benchmark, plus a time column where the results carry times. */
  def render(rs: Seq[Table]): String = {
    def timed(r: Table) = r.results.exists(_.avgTimeMs.isDefined)
    val header = Seq("Method") ++ rs.flatMap { r =>
      Seq(s"${r.benchmark} #Avg", s"${r.benchmark} #Min") ++
        (if (timed(r)) Seq(s"${r.benchmark} Time(ms)") else Nil)
    }
    val lines = rs.head.results.map(_.method).map { m =>
      Seq(m) ++ rs.flatMap { r =>
        val mr = r.results.find(_.method == m).get
        val cells = Seq(mr.avgWins.toString, mr.minWins.toString) ++
          (if (timed(r)) Seq(mr.avgTimeMs.fold("-")(Fmt.f2)) else Nil)
        if (mr.included) cells else cells.map(_ => "-")
      }
    }
    Fmt.table(header, lines)
  }
}
