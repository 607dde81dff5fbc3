package repro.core

import repro.embed.HashLm
import repro.util.VecOps

/** Base (pre-projection) tuple features: mean-pooled hash-LM vectors of the
  * serialized tuple's tokens. This is the "pre-trained transformer output"
  * that either goes out as-is (BERT/RoBERTa baselines in Fig 6), IDF-weighted
  * (sBERT), or through the fine-tuned head ([[DustModel]]).
  */
final case class TupleFeaturizer(lm: HashLm, idf: Option[String => Double] = None) {

  def dim: Int = HashLm.Dim

  /** Feature vector of a tuple given as (header, value) pairs. */
  def features(pairs: Seq[(String, String)]): Array[Double] = features(pairs, lm.tokenTable())

  /** [[features]] within a batch that shares one token table. */
  def features(pairs: Seq[(String, String)], tokens: HashLm.TokenTable): Array[Double] = {
    val toks = Serializer.tokens(pairs)
    if (toks.isEmpty) new Array[Double](HashLm.Dim)
    else idf match {
      case None    => lm.embedTokens(toks, tokens)
      case Some(w) => lm.embedWeighted(toks, toks.map(t => math.max(1e-6, w(t))), tokens)
    }
  }

  /** Cosine distance between two tuples in this base space. */
  def cosDist(a: Seq[(String, String)], b: Seq[(String, String)]): Double =
    VecOps.cosineDist(features(a), features(b))
}
