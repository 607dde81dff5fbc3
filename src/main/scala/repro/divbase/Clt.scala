package repro.divbase

import repro.core.DiversifyTuples
import repro.core.DiversifyTuples.EmbTuple

/** CLT — clustering-based diversification (van Leuken et al. [49]).
  *
  * Clusters the candidates into k clusters and returns each cluster's
  * medoid (the paper keeps the clustering technique and parameters
  * identical to DUST's for a fair comparison). Ignores the query tuples —
  * the gap DUST's re-ranking step closes.
  */
final case class Clt() extends DivAlgo {
  val name = "CLT"

  def select(cands: Vector[EmbTuple], query: Vector[Array[Double]], k: Int): Vector[EmbTuple] =
    DiversifyTuples.clusterMedoids(cands, k)
}
