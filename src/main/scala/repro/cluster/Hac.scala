package repro.cluster

import repro.util.Par

/** Agglomerative hierarchical clustering with average linkage (UPGMA),
  * built with the nearest-neighbour-chain algorithm: O(n²) time, O(n²) memory
  * on one half-size distance store ([[Hac.Dist]]). UPGMA is reducible, so
  * NN-chain yields the exact dendrogram; heights are monotone up to rounding, so cutting at
  * k clusters is "apply the n−k lowest merges" in [[Hac.Dendrogram]]'s cut order.
  *
  * This is the clustering engine behind DUST's tuple diversification
  * (Algorithm 2, Line 4), the CLT baseline and, with cannot-link groups,
  * holistic column alignment (§3.3).
  */
object Hac {

  /** One merge of cluster ids `a` and `b` (scipy-style ids: 0..n-1 are
    * leaves, n+m is the cluster made by merge m) at linkage `height`.
    */
  final case class Merge(a: Int, b: Int, height: Double)

  /** Merge forest over n leaves: n−1 merges make one tree, fewer leave
    * `minK` trees that cannot-link groups keep apart.
    */
  final case class Dendrogram(n: Int, merges: Vector[Merge]) {
    require(merges.length <= math.max(0, n - 1), s"expected at most ${n - 1} merges, got ${merges.length}")

    /** The fewest clusters a cut can give. */
    def minK: Int = n - merges.length

    /** Merge indices in cut order, stably sorted by effective height: the
      * max of a merge's own height and its children's effective heights.
      * UPGMA heights are monotone in exact arithmetic, but the size-weighted
      * update can round a parent below its child. Effective heights never
      * fall from child to parent, and formation order breaks ties, so every
      * merge comes after the merges that formed its children.
      */
    private[cluster] lazy val byHeight: Array[Int] = {
      val eff = new Array[Double](merges.length)
      def effOf(c: Int) = if (c < n) Double.NegativeInfinity else eff(c - n)
      for (j <- merges.indices) {
        val m = merges(j) // children precede parents in merge order
        eff(j) = math.max(m.height, math.max(effOf(m.a), effOf(m.b)))
      }
      merges.indices.sortBy(eff(_)).toArray
    }

    /** Labels (0..k-1, in order of first appearance) for a k-cluster cut. */
    def cut(k: Int): Array[Int] = {
      require(k >= math.max(1, minK) && k <= n, s"cut k=$k outside [${math.max(1, minK)}, $n]")
      // Union-find over leaves; every cluster id maps to one member leaf.
      val parent = Array.tabulate(n)(identity)
      def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); var c = x
        while (parent(c) != r) { val nx = parent(c); parent(c) = r; c = nx }; r }
      val member = new Array[Int](2 * n - 1)
      var i = 0
      while (i < n) { member(i) = i; i += 1 }
      i = 0
      while (i < n - k) {
        val j = byHeight(i); val m = merges(j)
        val ra = find(member(m.a)); val rb = find(member(m.b))
        parent(rb) = ra
        member(n + j) = ra // merge j made cluster n + j
        i += 1
      }
      val labelOf = Array.fill(n)(-1) // root leaf -> label
      var next = 0
      val labels = new Array[Int](n)
      i = 0
      while (i < n) {
        val r = find(i)
        if (labelOf(r) < 0) { labelOf(r) = next; next += 1 }
        labels(i) = labelOf(r)
        i += 1
      }
      labels
    }
  }

  /** Symmetric distances among `n` points with a zero diagonal, each pair
    * stored once: the strict upper triangle, row by row, in one flat array
    * of n(n−1)/2 doubles. Row i's entry for column j > i is `tri(base(i) + j)`.
    */
  final class Dist private[cluster] (val n: Int) {
    require(n.toLong * (n - 1) / 2 <= Int.MaxValue - 8, s"$n points have too many pairs for one array")
    private[cluster] val tri = new Array[Double]((n.toLong * (n - 1) / 2).toInt)
    private[cluster] val base: Array[Int] = Array.tabulate(n)(i => (i.toLong * (2L * n - i - 1) / 2 - i - 1).toInt)

    /** Slot in `tri` of the pair (i, j), i ≠ j, in either order. */
    private[cluster] def at(i: Int, j: Int): Int = if (i < j) base(i) + j else base(j) + i

    /** The distance between points i and j; d(i, j) = d(j, i) and d(i, i) = 0. */
    def apply(i: Int, j: Int): Double = if (i == j) 0.0 else tri(at(i, j))
  }

  /** Pairwise distances of a point set: `d(i, j) = dist(points(i), points(j))`
    * for i < j. Rows are computed in parallel, so `dist` must be safe to call
    * concurrently.
    */
  def distMatrix[A](points: IndexedSeq[A], dist: (A, A) => Double): Dist = {
    val d = new Dist(points.length)
    Par.foreach(d.n) { i =>
      val row = d.base(i)
      var j = i + 1
      while (j < d.n) { d.tri(row + j) = dist(points(i), points(j)); j += 1 }
    }
    d
  }

  /** UPGMA dendrogram via nearest-neighbour chain. `d0` is not modified.
    *
    * `group`, when non-empty, is each point's cannot-link group: two points
    * of one group never share a cluster. The working copy of the distances
    * holds +∞ for every same-group pair. The UPGMA update is a size-weighted
    * mean, so a cluster pair is at +∞ exactly when it holds a same-group
    * pair, and d(I∪J, K) ≥ min(d(I, K), d(J, K)) still holds: NN-chain stays
    * exact (Müllner, arXiv:1109.2378). A cluster with no finite neighbour
    * can never merge again and leaves the chain, so the result is a forest
    * of `minK` trees.
    */
  def upgma(d0: Dist, group: Array[Int] = Array.emptyIntArray): Dendrogram = {
    val n = d0.n
    require(group.isEmpty || group.length == n, "group arity mismatch")
    val d = d0.tri.clone()
    val base = d0.base
    for (i <- group.indices; j <- i + 1 until n if group(i) == group(j)) d(base(i) + j) = Double.PositiveInfinity
    val active = Array.fill(n)(true)
    var live = n
    val size = Array.fill(n)(1)
    val cid = Array.tabulate(n)(identity) // slot -> current cluster id
    var nextId = n
    val merges = Vector.newBuilder[Merge]
    val chain = new Array[Int](n + 1)
    var chainLen = 0

    /** Nearest active slot at finite distance, or -1: column s of the rows
      * above s, then row s, so no read branches on the order of the pair.
      */
    def nearest(s: Int): Int = {
      var best = -1; var bd = Double.PositiveInfinity
      var t = 0
      while (t < s) { if (active(t)) { val v = d(base(t) + s); if (v < bd) { bd = v; best = t } }; t += 1 }
      val row = base(s)
      t = s + 1
      while (t < n) { if (active(t)) { val v = d(row + t); if (v < bd) { bd = v; best = t } }; t += 1 }
      best
    }

    while (live > 1) {
      if (chainLen == 0) {
        var s = 0
        while (!active(s)) s += 1
        chain(0) = s; chainLen = 1
      }
      val top = chain(chainLen - 1)
      val nn = nearest(top)
      if (nn < 0) {
        // Every neighbour is at +∞ and stays there: top is a finished tree.
        active(top) = false; live -= 1
        chainLen -= 1
      } else if (chainLen >= 2 && nn == chain(chainLen - 2)) {
        // Reciprocal nearest neighbours: merge top into nn's slot (keep top).
        val i = top; val j = nn
        merges += Merge(cid(i), cid(j), d(d0.at(i, j)))
        var s = 0
        while (s < n) {
          if (active(s) && s != i && s != j) {
            val is = d0.at(i, s)
            d(is) = (size(i) * d(is) + size(j) * d(d0.at(j, s))) / (size(i) + size(j))
          }
          s += 1
        }
        size(i) += size(j)
        active(j) = false; live -= 1
        cid(i) = nextId; nextId += 1
        chainLen -= 2
      } else {
        chain(chainLen) = nn; chainLen += 1
      }
    }
    Dendrogram(n, merges.result())
  }
}
