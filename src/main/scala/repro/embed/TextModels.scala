package repro.embed

import java.util.concurrent.ConcurrentHashMap
import scala.reflect.ClassTag
import repro.data.Tokenizer
import repro.util.{Par, VecOps}

/** The pre-trained-model zoo, simulated as hash language models.
  *
  * Every model embeds a token as a mix of
  *  - a *context* component: the hash vector of the token's distributional
  *    context key (co-occurring tokens share it — the structure a pre-trained
  *    model absorbs from corpora), weighted by the model's semantic strength α;
  *  - a *surface* component: the hash vector of the literal token (word-level
  *    models) or the mean of its char-n-gram hashes (FastText).
  *
  * α orders the models the way the paper observes them (larger pre-training →
  * stronger context capture: RoBERTa > sBERT > BERT; word models in between),
  * and per-model salts make the spaces mutually unrelated.
  */
final case class HashLm(
    name: String,
    salt: Long,
    alpha: Double,            // context (semantic) mixing weight in [0,1]
    charNgrams: Boolean,      // FastText-style surface component
    aniso: Double = 0.0,      // anisotropy: weight of the model's global cone axis
) {
  /** The model's anisotropy axis: pre-trained transformers embed *all* text
    * into a narrow cone around a common direction, which is why their raw
    * cosine similarities cannot separate unionable from non-unionable tuples
    * at a fixed threshold (Fig 6's coin-toss rows). The fine-tuned heads
    * learn to project this component out.
    */
  private val cone: Array[Double] = Hashing.hashVec("\u0000cone", salt)

  /** Embedding of one token (unit norm). */
  def tokenVec(token: String): Array[Double] = tokenVec(token, Hashing.hashVec(_, salt))

  /** [[tokenVec]] with the context vector and FastText's n-gram vectors
    * drawn by `hash`, which must return `Hashing.hashVec(key, salt)`; a
    * [[HashLm.TokenTable]] passes its shared map.
    */
  private def tokenVec(token: String, hash: String => Array[Double]): Array[Double] = {
    val ctx = hash("ctx:" + Tokenizer.contextKey(token))
    val surface =
      if (charNgrams) Hashing.ngramVec(token)(hash)
      else Hashing.hashVec(token, salt)
    val v = new Array[Double](HashLm.Dim)
    VecOps.addInPlace(v, ctx, (1.0 - aniso) * alpha)
    VecOps.addInPlace(v, surface, (1.0 - aniso) * (1.0 - alpha))
    VecOps.addInPlace(v, cone, aniso)
    VecOps.normalize(v)
  }

  /** `Vector(embed(table, 0), ..., embed(table, n - 1))` for one batch call
    * (a lake's missed tables, one query's tuples, a fine-tuning set, ...):
    * the n elements run on every core (`Par.tabulate`, DESIGN.md §6) and
    * share one [[HashLm.TokenTable]], so each distinct token of the batch is
    * embedded once. This is the one place a token table is made, and the
    * table is the only pooling; it dies with the call. A single item is a
    * batch of one.
    */
  def batch[A: ClassTag](n: Int)(embed: (HashLm.TokenTable, Int) => A): Vector[A] = {
    val table = new HashLm.TokenTable(this)
    Par.tabulate(n)(embed(table, _)).toVector
  }
}

object HashLm {

  /** The token vectors of one [[HashLm.batch]] call, pooled into unit
    * vectors: each distinct token's vector is computed once and reused for
    * its later occurrences, and so is each hash vector the tokens draw by
    * key: the context vector of each context key and, for FastText, the
    * vector of each char n-gram. Never shared process-wide (DESIGN.md §6).
    * Safe for the concurrent use of the batch's parallel workers: a key
    * missed by several threads at once is still computed exactly once.
    */
  final class TokenTable private[HashLm] (lm: HashLm) {
    private val byToken = new ConcurrentHashMap[String, Array[Double]]()
    private val byKey = new ConcurrentHashMap[String, Array[Double]]()
    private val hashKey: java.util.function.Function[String, Array[Double]] = Hashing.hashVec(_, lm.salt)
    private val hash: String => Array[Double] = byKey.computeIfAbsent(_, hashKey)
    private val compute: java.util.function.Function[String, Array[Double]] = lm.tokenVec(_, hash)

    /** The model's vector of each token, in order. */
    private def vecs(tokens: Seq[String]): Seq[Array[Double]] = tokens.map(byToken.computeIfAbsent(_, compute))

    /** Unweighted mean pooling over a token sequence (the zero vector for
      * no tokens).
      */
    def embedTokens(tokens: Seq[String]): Array[Double] =
      if (tokens.isEmpty) new Array[Double](Dim)
      else VecOps.normalize(VecOps.mean(vecs(tokens)))

    /** Weighted mean pooling (e.g. TF-IDF weights). */
    def embedWeighted(tokens: Seq[String], weights: Seq[Double]): Array[Double] =
      if (tokens.isEmpty) new Array[Double](Dim)
      else VecOps.normalize(VecOps.weightedMean(vecs(tokens), weights))

    def embedText(text: String): Array[Double] = embedTokens(Tokenizer.tokens(text))
  }

  /** Shared embedding dimension (kept small; geometry, not capacity, matters). */
  val Dim = 64

  // Word-embedding models (cell-level only in the paper); static word
  // vectors are far less anisotropic than transformer outputs.
  val fastText: HashLm = HashLm("FastText", salt = 0xfa57L, alpha = 0.55, charNgrams = true, aniso = 0.20)
  val glove: HashLm    = HashLm("Glove", salt = 0x910feL, alpha = 0.55, charNgrams = false, aniso = 0.20)

  // Language models. α reflects the paper's observed ordering (RoBERTa best,
  // sBERT close, BERT weakest); aniso reflects raw-transformer cone collapse
  // (sBERT's sentence-similarity training partly de-anisotropizes it).
  val bert: HashLm    = HashLm("BERT", salt = 0xbe27L, alpha = 0.45, charNgrams = false, aniso = 0.85)
  val roberta: HashLm = HashLm("RoBERTa", salt = 0x20be27aL, alpha = 0.70, charNgrams = false, aniso = 0.85)
  val sbert: HashLm   = HashLm("sBERT", salt = 0x5be27L, alpha = 0.62, charNgrams = false, aniso = 0.15)

  // Starmie's contrastively-trained column encoder (context handled by
  // ColumnEmbedders.starmie, which mixes in table context).
  val starmieBase: HashLm = HashLm("Starmie", salt = 0x57a3b1eL, alpha = 0.65, charNgrams = false, aniso = 0.30)

  /** Encoder flavor seen by fine-tuning heads (DUST, Ditto): fine-tuning
    * adjusts the full transformer, which retains token-level information the
    * frozen pooled output collapses — modeled by a low-anisotropy copy of
    * the pre-trained flavor.
    */
  def dustBase(flavor: HashLm): HashLm = flavor.copy(aniso = 0.15)

  val all: Vector[HashLm] = Vector(fastText, glove, bert, roberta, sbert)
}
