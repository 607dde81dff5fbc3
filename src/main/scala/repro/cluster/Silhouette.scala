package repro.cluster

/** Silhouette coefficient (Rousseeuw 1987), the cluster-count selector used
  * by holistic column alignment (§3.3) — following Khatiwada et al. [26].
  */
object Silhouette {

  /** Mean silhouette over all points; singleton clusters score 0.
    * Undefined (returns -1) when there are fewer than 2 clusters.
    * Labels are non-negative cluster ids; unused ids are allowed.
    */
  def score(d: Hac.Dist, labels: Array[Int]): Double = {
    val n = labels.length
    require(d.n == n, "distances/labels arity mismatch")
    require(labels.forall(_ >= 0), "labels must be non-negative")
    val size = new Array[Int](if (n == 0) 0 else labels.max + 1)
    labels.foreach(c => size(c) += 1)
    if (size.count(_ > 0) < 2) return -1.0
    // Per point, sum(c) = Σ d(i, j) over the j ≠ i labelled c, added in
    // ascending j: a and every b term keep the same bits as a per-cluster loop.
    val sum = new Array[Double](size.length)
    var total = 0.0
    var i = 0
    while (i < n) {
      val own = labels(i)
      if (size(own) > 1) { // singletons contribute 0
        java.util.Arrays.fill(sum, 0.0)
        var j = 0
        while (j < n) { if (j != i) sum(labels(j)) += d(i, j); j += 1 }
        val a = sum(own) / (size(own) - 1)
        var b = Double.MaxValue
        var c = 0
        while (c < size.length) {
          if (c != own && size(c) > 0) { val m = sum(c) / size(c); if (m < b) b = m }
          c += 1
        }
        val s = (b - a) / math.max(a, b)
        total += (if (s.isNaN) 0.0 else s)
      }
      i += 1
    }
    total / n
  }

  /** The cluster count among `ks` whose cut of `den` maximizes silhouette
    * on `d`; ties go to the smaller count. Cuts are made one at a time.
    */
  def bestCut(d: Hac.Dist, den: Hac.Dendrogram, ks: Seq[Int]): Int = {
    require(ks.nonEmpty, "no candidate cuts")
    ks.maxBy(k => (score(d, den.cut(k)), -k))
  }
}
