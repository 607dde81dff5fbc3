package repro.divbase

import repro.core.DiversifyTuples.EmbTuple
import repro.util.VecOps

/** GMC — Greedy Marginal Contribution (Vieira et al., DivDB [51]).
  *
  * Greedily grows the result set; each step adds the candidate with the
  * largest marginal contribution to the max-sum objective
  * F(R) = (k−1)·λ·Σ rel + 2(1−λ)·Σ div. Following DivDB, the contribution
  * of a candidate also counts its *potential* future diversity — the
  * (k−1−|R|) remaining slots valued at the candidate's maximum distance to
  * the still-unselected candidates:
  *
  *   mmc(s) = λ(k−1)·rel(s) + 2(1−λ)·[ Σ_{r∈R} δ(s,r) + (k−1−|R|)·max_{j∉R} δ(s,j) ]
  *
  * The future-bound term is what makes GMC scan all candidate pairs every
  * iteration — the quadratic-in-s runtime the paper measures in Fig 7(a).
  * λ is [[DivAlgo.Lambda]].
  */
final case class Gmc() extends DivAlgo {
  val name = "GMC"

  def select(cands: Vector[EmbTuple], query: Vector[Array[Double]], k: Int): Vector[EmbTuple] = {
    if (cands.isEmpty) return Vector.empty
    val centroid = VecOps.mean(query)
    val rel = cands.map(DivAlgo.relevance(_, centroid))
    val n = cands.size
    val kk = math.min(k, n)
    val relWeight = DivAlgo.Lambda * math.max(1, k - 1)
    val selected = Vector.newBuilder[EmbTuple]
    val inSel = new Array[Boolean](n)
    // Incremental Σ distance to current selection per candidate.
    val sumDist = new Array[Double](n)
    var picked = 0
    while (picked < kk) {
      val futureSlots = math.max(0, k - 1 - picked)
      var best = -1; var bestScore = Double.NegativeInfinity
      var i = 0
      while (i < n) {
        if (!inSel(i)) {
          // Future-diversity bound: max distance to any unselected candidate.
          var maxRemaining = 0.0
          if (futureSlots > 0) {
            var j = 0
            while (j < n) {
              if (j != i && !inSel(j)) {
                val d = VecOps.cosineDist(cands(i).vec, cands(j).vec)
                if (d > maxRemaining) maxRemaining = d
              }
              j += 1
            }
          }
          val score = relWeight * rel(i) +
            2.0 * (1.0 - DivAlgo.Lambda) * (sumDist(i) + futureSlots * maxRemaining)
          if (score > bestScore ||
              (score == bestScore && best >= 0 && cands(i).id < cands(best).id)) {
            bestScore = score; best = i
          }
        }
        i += 1
      }
      inSel(best) = true
      selected += cands(best)
      var j = 0
      while (j < n) {
        if (!inSel(j)) sumDist(j) += VecOps.cosineDist(cands(j).vec, cands(best).vec)
        j += 1
      }
      picked += 1
    }
    selected.result()
  }
}
