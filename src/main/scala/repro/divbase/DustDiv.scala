package repro.divbase

import repro.core.DiversifyTuples
import repro.core.DiversifyTuples.EmbTuple

/** DUST's diversifier: Algorithm 2 (`DiversifyTuples.run`). The harness
  * has already pruned the candidates, as for every algorithm, so s is the
  * candidate count and pruning keeps them all: cluster to k·p medoids, then
  * re-rank by max-min distance to the query tuples.
  */
final case class DustDiv(p: Int = 2) extends DivAlgo {
  val name = "DUST"

  def select(cands: Vector[EmbTuple], query: Vector[Array[Double]], k: Int): Vector[EmbTuple] =
    DiversifyTuples.run(cands, query, k, p, s = cands.size)
}
