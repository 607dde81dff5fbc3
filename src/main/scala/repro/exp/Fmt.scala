package repro.exp

/** Plain-text table rendering and method timing for bench output and jobs. */
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

  /** Untimed calls of each method before its first timed one: a fresh JVM
    * needs about five before CLT and DUST reach their steady time.
    */
  private val WarmUpCalls = 5

  /** Timed calls per reported time; the time is their median. */
  private val TimedCalls = 3

  /** `call(c, m)` for each config c and method m, in order: the result of
    * its first timed call and the median wall time, in nanos, of
    * [[TimedCalls]] calls. Each method first runs [[WarmUpCalls]] times,
    * untimed, on the first config, so JIT warm-up lands in no time.
    */
  def medianTimes[C, M, A](configs: Seq[C], methods: Seq[M])(call: (C, M) => A): Vector[Vector[(A, Long)]] = {
    configs.headOption.foreach(c => methods.foreach(m => (1 to WarmUpCalls).foreach(_ => call(c, m))))
    configs.toVector.map { c =>
      methods.toVector.map { m =>
        val runs = Vector.fill(TimedCalls)(timed(call(c, m)))
        (runs.head._1, runs.map(_._2).sorted.apply(TimedCalls / 2))
      }
    }
  }
}
