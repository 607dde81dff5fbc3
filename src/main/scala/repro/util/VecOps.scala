package repro.util

/** Dense vector primitives used throughout (embeddings are Array[Double]).
  *
  * All functions are allocation-conscious; distance kernels are the hot
  * path of clustering and diversification.
  */
object VecOps {

  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  def norm(a: Array[Double]): Double = math.sqrt(dot(a, a))

  /** Cosine similarity; 0 if either vector is all-zero. */
  def cosineSim(a: Array[Double], b: Array[Double]): Double = {
    val na = norm(a); val nb = norm(b)
    if (na == 0.0 || nb == 0.0) 0.0 else dot(a, b) / (na * nb)
  }

  /** Cosine distance = 1 - cosine similarity; in [0, 2]. δ(x, x) = 0 for
    * every x: exactly for the zero vector, and up to rounding otherwise. A
    * zero vector is at distance 1 from every non-zero vector.
    */
  def cosineDist(a: Array[Double], b: Array[Double]): Double = cosineDist(a, norm(a), b, norm(b))

  /** [[cosineDist]] given `na = norm(a)` and `nb = norm(b)`: one dot
    * product per pair when a caller takes each norm once, with the same bits.
    */
  def cosineDist(a: Array[Double], na: Double, b: Array[Double], nb: Double): Double =
    if (na == 0.0 || nb == 0.0) { if (na == nb) 0.0 else 1.0 }
    else 1.0 - dot(a, b) / (na * nb)

  def euclidean(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** a += w * b in place. */
  def addInPlace(a: Array[Double], b: Array[Double], w: Double = 1.0): Unit = {
    var i = 0
    while (i < a.length) { a(i) += w * b(i); i += 1 }
  }

  /** Unit-normalize (copy); zero vector stays zero. */
  def normalize(a: Array[Double]): Array[Double] = {
    val n = norm(a)
    if (n == 0.0) a.clone()
    else {
      val out = new Array[Double](a.length)
      var i = 0
      while (i < a.length) { out(i) = a(i) / n; i += 1 }
      out
    }
  }

  /** Element-wise mean of non-empty vector set. */
  def mean(vs: Iterable[Array[Double]]): Array[Double] = {
    require(vs.nonEmpty, "mean of empty set")
    val d = vs.head.length
    val acc = new Array[Double](d)
    var n = 0
    vs.foreach { v => addInPlace(acc, v); n += 1 }
    var i = 0
    while (i < d) { acc(i) /= n; i += 1 }
    acc
  }

  /** Weighted mean; weights need not sum to 1 (they are normalized). */
  def weightedMean(vs: Seq[Array[Double]], ws: Seq[Double]): Array[Double] = {
    require(vs.nonEmpty && vs.length == ws.length, "weightedMean arity")
    val total = ws.sum
    require(total > 0, "weights must have positive sum")
    val acc = new Array[Double](vs.head.length)
    val v = vs.iterator; val w = ws.iterator
    while (v.hasNext) addInPlace(acc, v.next(), w.next() / total)
    acc
  }

  /** Index of the medoid of `n` elements: the one whose distances to the
    * others, summed in index order, are least; ties keep the first.
    */
  def medoidIndex(n: Int)(dist: (Int, Int) => Double): Int = {
    require(n > 0, "medoid of empty set")
    var best = 0; var bestSum = Double.MaxValue
    var i = 0
    while (i < n) {
      var s = 0.0; var j = 0
      while (j < n) { if (i != j) s += dist(i, j); j += 1 }
      if (s < bestSum) { bestSum = s; best = i }
      i += 1
    }
    best
  }

  /** Index of the medoid of a vector set under `dist`. */
  def medoidIndex(vs: IndexedSeq[Array[Double]], dist: (Array[Double], Array[Double]) => Double): Int =
    medoidIndex(vs.length)((i, j) => dist(vs(i), vs(j)))
}
