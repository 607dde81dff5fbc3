package repro.core

import scala.collection.mutable
import repro.embed.HashLm

/** Base (pre-projection) tuple features: mean-pooled hash-LM vectors of the
  * serialized tuple's tokens. This is the "pre-trained transformer output"
  * that either goes out as-is (BERT/RoBERTa baselines in Fig 6), IDF-weighted
  * (sBERT), or through the fine-tuned head ([[DustModel]]).
  */
final case class TupleFeaturizer(lm: HashLm, idf: Option[String => Double] = None) {

  /** The feature vector of every tuple, each given as (header, value)
    * pairs, in order, as one batch call ([[HashLm.batch]]).
    */
  def featuresAll(tuples: Seq[Seq[(String, String)]]): Vector[Array[Double]] = mapAll(tuples)(identity)

  /** `head` of each tuple's feature vector, in order; `head` runs inside
    * the batch's parallel loop. Each distinct `pairs` sequence is embedded
    * once and its vector handed to every copy, so copies share one array,
    * which must not be mutated (DESIGN.md §6). The key is the exact
    * sequence, not its multiset: pooling sums in token order.
    */
  private[core] def mapAll(tuples: Seq[Seq[(String, String)]])(
      head: Array[Double] => Array[Double]): Vector[Array[Double]] = {
    val distinct = mutable.ArrayBuffer.empty[Seq[(String, String)]]
    val slotOf = mutable.HashMap.empty[Seq[(String, String)], Int]
    val slots = tuples.iterator.map { pairs =>
      slotOf.getOrElseUpdate(pairs, { distinct += pairs; distinct.size - 1 })
    }.toArray
    val vecs = lm.batch(distinct.size)((tokens, i) => head(pool(tokens, distinct(i))))
    slots.iterator.map(vecs).toVector
  }

  private def pool(tokens: HashLm.TokenTable, pairs: Seq[(String, String)]): Array[Double] = {
    val toks = Serializer.tokens(pairs)
    idf match {
      case None    => tokens.embedTokens(toks)
      case Some(w) => tokens.embedWeighted(toks, toks.map(t => math.max(1e-6, w(t))))
    }
  }
}
