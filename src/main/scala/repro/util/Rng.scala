package repro.util

/** Deterministic pseudo-randomness for the whole reproduction.
  *
  * Every stochastic choice in the repo (synthetic data, hash embeddings,
  * model init, baseline randomization) flows through [[Rng]] seeded from
  * explicit longs, so benchmarks and tests always see the same bytes.
  */
final class Rng(seed: Long) {
  private var state: Long = seed

  /** SplitMix64 step — fast, well-mixed, allocation-free. */
  def nextLong(): Long = {
    state += 0x9e3779b97f4a7c15L
    var z = state
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Uniform double in [0, 1). */
  def nextDouble(): Double = (nextLong() >>> 11) * 1.1102230246251565e-16

  /** Uniform int in [0, n). */
  def nextInt(n: Int): Int = {
    require(n > 0, s"nextInt bound must be positive, got $n")
    ((nextLong() >>> 1) % n).toInt
  }

  /** Standard normal via Box–Muller (one value per call; simple and exact enough). */
  def nextGaussian(): Double = {
    var u1 = nextDouble()
    if (u1 < 1e-300) u1 = 1e-300
    val u2 = nextDouble()
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
  }

  /** A random permutation of `0 until n`: Fisher–Yates on the identity. */
  def permutation(n: Int): Array[Int] = {
    val a = Array.range(0, n)
    var i = n - 1
    while (i > 0) {
      val j = nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
    a
  }

  /** Fisher–Yates shuffle (returns a new vector): `xs` in [[permutation]]'s
    * order, which is Fisher–Yates on `xs` itself, draw for draw.
    */
  def shuffle[A](xs: Seq[A]): Vector[A] = {
    val a = xs.toIndexedSeq
    permutation(a.length).iterator.map(a).toVector
  }
}

object Rng {
  /** Stable 64-bit string hash (FNV-1a), used to seed token embeddings. */
  def hashString(s: String): Long = {
    var h = 0xcbf29ce484222325L
    var i = 0
    while (i < s.length) {
      h ^= s.charAt(i).toLong
      h *= 0x100000001b3L
      i += 1
    }
    h
  }

  /** Combine two seeds into one (order-sensitive). */
  def mix(a: Long, b: Long): Long = {
    var z = a + 0x9e3779b97f4a7c15L * (b + 1)
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z ^ (z >>> 31)
  }
}
