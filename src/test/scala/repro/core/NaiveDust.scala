package repro.core

import repro.core.DiversifyTuples.EmbTuple
import repro.util.VecOps

/** Algorithm 2 (§5) written straight from its definitions, as a reference
  * for the engines: no distance store, no nearest-neighbour chain, no
  * helper of [[DiversifyTuples]]. Only the cosine distance δ is shared.
  * Cubic time, for test inputs.
  *
  * Where the definitions leave a choice, this follows the one the engines
  * make: prune ranks by (−score, id) and an input within budget keeps its
  * order; a medoid tie (every two-member cluster has one) goes to the member
  * prune ranks first. Ties between exact duplicates across clusters are not
  * defined here.
  */
object NaiveDust {

  private def delta(a: Array[Double], b: Array[Double]): Double = VecOps.cosineDist(a, b)

  /** §5.1: each tuple's score is δ(mean of its table's vectors, its vector);
    * keep the s highest scores, by a full sort on (−score, id).
    */
  def prune(tuples: Vector[EmbTuple], s: Int): Vector[EmbTuple] =
    if (tuples.size <= s) tuples
    else {
      val mean = tuples.groupBy(_.table).map { case (table, rows) =>
        table -> Array.tabulate(rows.head.vec.length)(i => rows.map(_.vec(i)).sum / rows.size)
      }
      tuples.sortBy(t => (-delta(mean(t.table), t.vec), t.id)).take(s)
    }

  /** §5.2's UPGMA cut into m clusters: start from singletons and, while more
    * than m clusters remain, merge the two whose average pairwise distance
    * is least. Each cluster lists its members in ascending index order.
    */
  def upgma(vecs: IndexedSeq[Array[Double]], m: Int): Vector[Vector[Int]] = {
    val d = Array.tabulate(vecs.size, vecs.size)((i, j) => delta(vecs(i), vecs(j)))
    def linkage(a: Vector[Int], b: Vector[Int]): Double =
      (for (i <- a; j <- b) yield d(i)(j)).sum / (a.size * b.size)
    var clusters = vecs.indices.toVector.map(Vector(_))
    while (clusters.size > m) {
      val pairs = for (x <- clusters.indices; y <- x + 1 until clusters.size) yield (x, y)
      val (x, y) = pairs.minBy { case (x, y) => linkage(clusters(x), clusters(y)) }
      clusters = clusters.updated(x, (clusters(x) ++ clusters(y)).sorted).patch(y, Nil, 1)
    }
    clusters
  }

  /** The member whose distances to the other members sum least; the first
    * such member on a tie.
    */
  def medoid(members: Vector[Int], vecs: IndexedSeq[Array[Double]]): Int =
    members.minBy(i => members.filter(_ != i).map(j => delta(vecs(i), vecs(j))).sum)

  /** §5.3: sort by (min distance to the query desc, average desc, id asc)
    * and keep k.
    */
  def rerank(cands: Vector[EmbTuple], query: Seq[Array[Double]], k: Int): Vector[EmbTuple] =
    cands.sortBy { t =>
      val ds = query.map(delta(t.vec, _))
      (-ds.min, -ds.sum / ds.size, t.id)
    }.take(k)

  /** Algorithm 2: prune to s, cut into min(k·p, survivors) clusters, take
    * their medoids and re-rank them.
    */
  def run(tuples: Vector[EmbTuple], query: Seq[Array[Double]], k: Int, p: Int, s: Int): Vector[EmbTuple] = {
    val pruned = prune(tuples, s)
    val vecs = pruned.map(_.vec)
    val medoids = upgma(vecs, math.min(k * p, pruned.size)).map(c => pruned(medoid(c, vecs)))
    rerank(medoids, query, k)
  }
}
