package repro.divbase

import repro.core.DiversifyTuples.EmbTuple
import repro.util.{Rng, VecOps}

/** GNE — Greedy randomized with Neighborhood Expansion (Vieira et al. [51]).
  *
  * GRASP over the max-sum objective (λ = 0.5): `iterations` rounds of (a)
  * randomized greedy construction — each step picks uniformly among the top
  * 3 candidates by GMC score — and (b) local search that tries swapping
  * selected items with outsiders while the set score improves. Keeps the
  * best set seen. Deliberately expensive (the paper's slowest baseline).
  */
final case class Gne(iterations: Int = 10, swapTries: Int = 200, seed: Long = 5150) extends DivAlgo {
  val name = "GNE"
  private val lambda = 0.5
  private val rcl = 3 // restricted candidate list size

  def select(cands: Vector[EmbTuple], query: Vector[Array[Double]], k: Int): Vector[EmbTuple] = {
    if (cands.isEmpty) return Vector.empty
    val rng = new Rng(seed)
    val centroid = VecOps.mean(query)
    val rel = cands.map(DivAlgo.relevance(_, centroid))
    val n = cands.size
    val kk = math.min(k, n)

    val relWeight = lambda * math.max(1, kk - 1)

    def construct(): Vector[Int] = {
      val inSel = new Array[Boolean](n)
      val sumDist = new Array[Double](n)
      val sel = Vector.newBuilder[Int]
      var picked = 0
      while (picked < kk) {
        val scored = (0 until n).iterator
          .filter(!inSel(_))
          .map(i => (i, relWeight * rel(i) + 2.0 * (1.0 - lambda) * sumDist(i)))
          .toVector
          .sortBy { case (i, s) => (-s, i) }
        val choice = scored(rng.nextInt(math.min(rcl, scored.size)))._1
        inSel(choice) = true
        sel += choice
        var j = 0
        while (j < n) {
          if (!inSel(j)) sumDist(j) += VecOps.cosineDist(cands(j).vec, cands(choice).vec)
          j += 1
        }
        picked += 1
      }
      sel.result()
    }

    def score(sel: Vector[Int]): Double =
      DivAlgo.setScore(sel.map(cands(_)), centroid, lambda)

    var bestSel = construct()
    var bestScore = score(bestSel)
    var it = 1
    while (it < iterations) {
      var cur = construct()
      var curScore = score(cur)
      // Neighborhood expansion: random swap local search.
      var tries = 0
      while (tries < swapTries) {
        val pos = rng.nextInt(cur.size)
        val outsider = rng.nextInt(n)
        if (!cur.contains(outsider)) {
          val cand = cur.updated(pos, outsider)
          val s = score(cand)
          if (s > curScore) { cur = cand; curScore = s }
        }
        tries += 1
      }
      if (curScore > bestScore) { bestScore = curScore; bestSel = cur }
      it += 1
    }
    bestSel.map(cands(_))
  }
}
