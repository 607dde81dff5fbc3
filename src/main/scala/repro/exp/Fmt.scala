package repro.exp

/** Plain-text table rendering for bench output and jobs. */
object Fmt {
  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmtRow(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (fmtRow(header) +: sep +: rows.map(fmtRow)).mkString("\n")
  }

  def f2(x: Double): String = f"$x%.2f"

  /** Time a thunk; returns (result, elapsed nanos). */
  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, System.nanoTime() - t0)
  }
}
