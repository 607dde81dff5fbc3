package repro.bench

/** Timing and record helper of the kernel harnesses (`ClusterKernelBench`,
  * `FineTuneBench`, `TokenKernelBench`).
  */
object KernelTiming {

  /** Timed runs per kernel, after one warm-up run. */
  private val Runs = 5

  /** Runs `body` once to warm up and then [[Runs]] timed times; every timed
    * run must give the warm-up's checksum. Prints the sorted wall times,
    * their median, quartiles and p90 (nearest rank), the checksum, and a
    * `record:` line in `BENCH_kernels.json`'s shape without its commit.
    * `unit` is "ms" (2 decimals) or "s" (3 decimals). Returns the checksum.
    */
  def time[A](workload: String, metric: String, unit: String)(body: => A)(checksum: A => String): String = {
    val (nanosPerUnit, decimals) = unit match {
      case "ms" => (1e6, 2)
      case "s"  => (1e9, 3)
    }
    def fmt(x: Double) = s"%.${decimals}f".format(x)
    val sum = checksum(body)
    val ts = Vector.fill(Runs) {
      val t0 = System.nanoTime()
      val out = body
      val t = (System.nanoTime() - t0) / nanosPerUnit
      assert(checksum(out) == sum, s"$metric on $workload gave a different output")
      t
    }.sorted
    def rank(q: Double) = fmt(ts(math.ceil(q * ts.size).toInt - 1))
    println(s"$metric $workload runs ($unit, sorted): ${ts.map(fmt).mkString(" ")}")
    println(s"$metric $workload median ${rank(0.5)} $unit, IQR [${rank(0.25)}, ${rank(0.75)}], " +
      s"p90 ${rank(0.9)} $unit, checksum $sum")
    println(s"""record: {"nproc": ${Runtime.getRuntime.availableProcessors}, "runs": ${ts.size}, """ +
      s""""workload": "$workload", "metric": "$metric", "unit": "$unit", "median": ${rank(0.5)}, """ +
      s""""IQR": [${rank(0.25)}, ${rank(0.75)}], "p90": ${rank(0.9)}, "checksum": "$sum"}""")
    sum
  }
}
