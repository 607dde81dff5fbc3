package repro.search

import repro.core.OuterUnion.UnionTuple
import repro.core.Serializer
import repro.embed.HashLm
import repro.util.VecOps

/** Starmie adapted to tuple search (§6.5.1): every lake tuple is indexed as
  * a single-row table and the top-k "tables" (tuples) most similar to the
  * query table are returned. Pure similarity ranking — near-duplicates of
  * query rows win, which is exactly the failure mode Table 3 exposes.
  */
object TupleSearch {

  private val lm = HashLm.starmieBase

  /** Top-k lake tuples by similarity to the query table, whose
    * representation is the mean of its tuple embeddings (each tuple embedded
    * as Starmie embeds a single-row table). Query and lake tuples are
    * embedded in one batch call.
    */
  def topK(lakeTuples: Vector[UnionTuple], queryTuples: Vector[UnionTuple], k: Int): Vector[UnionTuple] = {
    val all = queryTuples ++ lakeTuples
    val embs = lm.batch(all.size)((tokens, i) => tokens.embedTokens(Serializer.tokens(all(i).pairs)))
    val q = VecOps.normalize(VecOps.mean(embs.take(queryTuples.size)))
    lakeTuples.zip(embs.drop(queryTuples.size))
      .map { case (t, e) => (t, VecOps.cosineSim(e, q)) }
      .sortBy { case (t, s) => (-s, t.id) }
      .take(k)
      .map(_._1)
  }
}
