package repro.core

import repro.util.VecOps

/** The two adapted diversity measures of §5.4, over one set of cosine
  * distances: all query↔selected distances plus all pairwise distances
  * among the selected. Query-query distances are excluded (constant across
  * methods).
  *
  * Average Diversity (Eq. 1): the sum of that set, normalized by n + k.
  * Min Diversity (Eq. 2): the minimum of that set.
  */
object DiversityMetrics {

  /** Eq. (1) and Eq. (2) of one selection. */
  final case class Diversity(avg: Double, min: Double)

  /** Both measures from one pass over the distance set. The set must be
    * non-empty: at least one selected tuple, and a query tuple or a second
    * selected tuple.
    */
  def diversity(query: Seq[Array[Double]], selected: Seq[Array[Double]]): Diversity = {
    val n = query.size; val k = selected.size
    require(k > 0, "no selected tuples")
    require(n > 0 || k >= 2, "diversity needs at least one distance")
    var m = Double.MaxValue
    var cross = 0.0
    query.foreach(q => selected.foreach { t =>
      val d = VecOps.cosineDist(q, t); cross += d; m = math.min(m, d)
    })
    var within = 0.0
    var i = 0
    while (i < k) {
      var j = i + 1
      while (j < k) {
        val d = VecOps.cosineDist(selected(i), selected(j)); within += d; m = math.min(m, d)
        j += 1
      }
      i += 1
    }
    Diversity((cross + within) / (n + k), m)
  }
}
