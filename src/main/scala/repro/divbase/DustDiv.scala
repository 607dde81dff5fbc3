package repro.divbase

import repro.core.DiversifyTuples
import repro.core.DiversifyTuples.EmbTuple

/** DUST's diversifier (Algorithm 2 minus pruning, which the harness applies
  * uniformly to all algorithms): cluster to k·p medoids, then re-rank by
  * max-min distance to the query tuples.
  */
final case class DustDiv(p: Int = 2) extends DivAlgo {
  val name = "DUST"

  def select(cands: Vector[EmbTuple], query: Vector[Array[Double]], k: Int): Vector[EmbTuple] = {
    val medoids = DiversifyTuples.clusterMedoids(cands, k * p)
    DiversifyTuples.rerank(medoids, query, k)
  }
}
