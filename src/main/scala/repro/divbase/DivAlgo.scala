package repro.divbase

import repro.core.DiversifyTuples.EmbTuple
import repro.util.VecOps

/** Common interface of the §6.4 tuple-diversification algorithms.
  *
  * Input: candidate lake tuples (already pruned — pruning is applied
  * uniformly to every algorithm, per Appendix A.2.3) and the query tuple
  * embeddings; output: k tuples.
  */
trait DivAlgo {
  def name: String
  def select(cands: Vector[EmbTuple], query: Vector[Array[Double]], k: Int): Vector[EmbTuple]
}

object DivAlgo {

  /** Relevance of a tuple for MMR-style methods: similarity to the query
    * centroid (the standard IR notion adapted to tuples).
    */
  def relevance(t: EmbTuple, centroid: Array[Double]): Double =
    1.0 - VecOps.cosineDist(t.vec, centroid)

  /** Max-sum set objective used by GMC/GNE:
    * F(R) = λ·(k−1)·Σ rel(r) + 2(1−λ)·Σ_{i<j} δ(r_i, r_j)  (Vieira et al.).
    */
  def setScore(sel: Vector[EmbTuple], centroid: Array[Double], lambda: Double): Double = {
    val k = sel.size
    if (k == 0) return 0.0
    val rel = sel.map(relevance(_, centroid)).sum
    var div = 0.0
    var i = 0
    while (i < k) {
      var j = i + 1
      while (j < k) { div += VecOps.cosineDist(sel(i).vec, sel(j).vec); j += 1 }
      i += 1
    }
    lambda * math.max(1, k - 1) * rel + 2.0 * (1.0 - lambda) * div
  }
}
