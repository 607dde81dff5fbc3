package repro.embed

import repro.util.{Rng, VecOps}

/** Deterministic token → vector hash embeddings.
  *
  * A token's vector is a unit Gaussian sample seeded by `hash(salt ++ token)`;
  * two models with different salts therefore have unrelated spaces, just as
  * two separately pre-trained transformers do. See DESIGN.md §2 for why this
  * substitutes for GPU-hosted pre-trained models.
  */
object Hashing {

  /** Unit Gaussian [[HashLm.Dim]]-vector for (salt, key); deterministic. */
  def hashVec(key: String, salt: Long): Array[Double] = {
    val rng = new Rng(Rng.mix(salt, Rng.hashString(key)))
    val v = new Array[Double](HashLm.Dim)
    var i = 0
    while (i < v.length) { v(i) = rng.nextGaussian(); i += 1 }
    // VecOps.normalize's division, in place: the draws are this call's own.
    val n = VecOps.norm(v)
    if (n != 0.0) { i = 0; while (i < v.length) { v(i) /= n; i += 1 } }
    v
  }

  /** Character 3- to 5-grams of a token with boundary markers (FastText-style). */
  def charNgrams(token: String): Vector[String] = {
    val padded = s"<$token>"
    val out = Vector.newBuilder[String]
    var n = 3
    while (n <= 5) {
      var i = 0
      while (i + n <= padded.length) { out += padded.substring(i, i + n); i += 1 }
      n += 1
    }
    val grams = out.result()
    if (grams.isEmpty) Vector(padded) else grams
  }

  /** Mean of n-gram hash vectors — tokens sharing surface prefixes embed
    * close. `hash(gram)` is the n-gram's `hashVec(gram, salt)`, drawn afresh
    * or read from a token table; the mean runs in n-gram order either way.
    */
  def ngramVec(token: String)(hash: String => Array[Double]): Array[Double] =
    VecOps.normalize(VecOps.mean(charNgrams(token).map(hash)))
}
