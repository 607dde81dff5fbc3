package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.cluster.Hac
import repro.util.VecOps

/** DUST tuple diversification — Algorithm 2 (§5).
  *
  * 1. Prune: rank every lake tuple by its distance from its own table's mean
  *    embedding and keep the global top-s (§5.1).
  * 2. Cluster the survivors into k·p clusters (UPGMA) and take each
  *    cluster's medoid as a candidate (§5.2).
  * 3. Re-rank candidates by their minimum distance to the query tuples,
  *    descending, tie-broken by average distance (§5.3, Example 5);
  *    return the top k.
  *
  * The driver-side functions are the algorithmic core and what the
  * efficiency experiments time. Like the paper's runs they use one node;
  * the distance matrix is computed on all of its cores (DESIGN.md §6).
  * `sparkPrune` / `sparkRerank` express steps 1 and 3 as Spark dataflows
  * over `(id, table, vec)` frames for lake-scale runs; each returns the
  * driver step's output in the driver's order (tested against the driver
  * steps and an SQL oracle).
  */
object DiversifyTuples {

  /** A tuple in embedding space. */
  final case class EmbTuple(id: Long, table: String, vec: Array[Double])

  // ------------------------------------------------------------------
  // Driver core
  // ------------------------------------------------------------------

  /** §5.1 — keep the global top-s tuples by distance from their table mean.
    * Deterministic: ties broken by ascending id.
    */
  def prune(tuples: Vector[EmbTuple], s: Int): Vector[EmbTuple] = {
    if (tuples.size <= s) return tuples
    tuples.groupBy(_.table).valuesIterator
      .flatMap(ts => ts.zip(tableScores(ts.map(_.vec))))
      .toVector
      .sortBy { case (t, d) => (-d, t.id) }
      .take(s)
      .map(_._1)
  }

  /** §5.1's score of one table's rows: each row's distance from the table's
    * mean, the mean summed in the order given. [[prune]] and [[sparkPrune]]
    * both score a table through this.
    */
  private def tableScores(vecs: Vector[Array[Double]]): Vector[Double] = {
    val mean = normed(VecOps.mean(vecs))
    vecs.map(v => dist(mean, normed(v)))
  }

  /** A vector with its norm, taken once, so that [[dist]] is one dot
    * product per pair.
    */
  private final case class Normed(vec: Array[Double], norm: Double)

  private def normed(v: Array[Double]): Normed = Normed(v, VecOps.norm(v))

  /** `VecOps.cosineDist(a.vec, b.vec)`, bit for bit. */
  private def dist(a: Normed, b: Normed): Double = VecOps.cosineDist(a.vec, a.norm, b.vec, b.norm)

  /** §5.2 — cluster into `nClusters` and return each cluster's medoid. One
    * distance store serves both the UPGMA cut and the medoids.
    */
  def clusterMedoids(cands: Vector[EmbTuple], nClusters: Int): Vector[EmbTuple] = {
    if (cands.isEmpty) return cands
    val m = math.min(nClusters, cands.size)
    val d = Hac.distMatrix(cands.map(t => normed(t.vec)), dist)
    val labels = Hac.upgma(d).cut(m)
    cands.indices
      .groupBy(labels(_))
      .toVector
      .sortBy(_._1)
      .map { case (_, members) =>
        cands(members(VecOps.medoidIndex(members.length)((i, j) => d(members(i), members(j)))))
      }
  }

  /** §5.3 — rank by (min distance to query desc, avg distance desc, id asc). */
  def rerank(cands: Vector[EmbTuple], query: Seq[Array[Double]], k: Int): Vector[EmbTuple] = {
    require(query.nonEmpty, "rerank needs query tuples")
    val qs = query.toVector.map(normed)
    cands
      .map { t =>
        val (mn, avg) = queryDistance(t.vec, qs)
        (t, mn, avg)
      }
      .sortBy { case (t, mn, avg) => (-mn, -avg, t.id) }
      .take(k)
      .map(_._1)
  }

  /** Min and average distance from `v` to the query tuples, summed in query
    * order. The min orders by `Double.compare`, as `Seq.min` on doubles does.
    */
  private def queryDistance(v: Array[Double], query: Vector[Normed]): (Double, Double) = {
    val nv = normed(v)
    var mn = dist(nv, query(0)); var sum = mn
    var i = 1
    while (i < query.size) {
      val d = dist(nv, query(i))
      if (java.lang.Double.compare(d, mn) < 0) mn = d
      sum += d
      i += 1
    }
    (mn, sum / query.size)
  }

  /** Full Algorithm 2 on the driver. */
  def run(tuples: Vector[EmbTuple], query: Seq[Array[Double]], k: Int, p: Int, s: Int): Vector[EmbTuple] = {
    val pruned = prune(tuples, s)
    val cands = clusterMedoids(pruned, k * p)
    rerank(cands, query, k)
  }

  // ------------------------------------------------------------------
  // Spark dataflow versions. Frames carry (id LONG, table STRING, vec ARRAY<DOUBLE>).
  // ------------------------------------------------------------------

  def toDF(spark: SparkSession, tuples: Seq[EmbTuple]): DataFrame = {
    import spark.implicits._
    spark.createDataset(tuples.map(t => (t.id, t.table, t.vec.toSeq))).toDF("id", "table", "vec")
  }

  def fromDF(df: DataFrame): Vector[EmbTuple] =
    df.select("id", "table", "vec").collect().toVector.map { r =>
      EmbTuple(r.getLong(0), r.getString(1), r.getSeq[Double](2).toArray)
    }

  /** Distributed §5.1: exactly [[prune]]'s output, in its order. Each table's
    * rows are sorted by id — ids follow input order — and scored by the
    * function [[prune]] scores them with; the global top-s is an
    * `orderBy.limit` (TakeOrderedAndProject). An input of at most s tuples
    * is returned as it came, as [[prune]] returns it.
    */
  def sparkPrune(spark: SparkSession, tuplesDf: DataFrame, s: Int): DataFrame = {
    import spark.implicits._
    if (tuplesDf.count() <= s) return tuplesDf
    tuplesDf.select("id", "table", "vec").as[(Long, String, Array[Double])]
      .groupByKey(_._2)
      .flatMapGroups { (_, rows) =>
        val ts = rows.toVector.sortBy(_._1)
        ts.zip(tableScores(ts.map(_._3))).map { case ((id, table, vec), d) => (id, table, vec, d) }
      }
      .toDF("id", "table", "vec", "score")
      .orderBy(col("score").desc, col("id").asc)
      .limit(s)
      .select("id", "table", "vec")
  }

  /** Distributed §5.3: the query tuples are collected once, in id order,
    * and one typed `map` scores each candidate with the min and average
    * distance [[rerank]] takes, summed in that same order; then the top-k by
    * `orderBy.limit`. The k rows are collected and numbered from 1 in `rk`.
    */
  def sparkRerank(spark: SparkSession, candDf: DataFrame, queryDf: DataFrame, k: Int): DataFrame = {
    import spark.implicits._
    val query = queryDf.select("id", "vec").as[(Long, Array[Double])].collect().sortBy(_._1).toVector
      .map(q => normed(q._2))
    require(query.nonEmpty, "rerank needs query tuples")
    val top = candDf.select("id", "table", "vec").as[(Long, String, Array[Double])]
      .map { case (id, table, vec) =>
        val (mn, avg) = queryDistance(vec, query)
        (id, table, vec, mn, avg)
      }
      .toDF("id", "table", "vec", "rankScore", "tieScore")
      .orderBy(col("rankScore").desc, col("tieScore").desc, col("id").asc)
      .limit(k)
      .as[(Long, String, Array[Double], Double, Double)]
      .collect()
    top.toSeq.zipWithIndex
      .map { case ((id, table, vec, mn, avg), i) => (id, table, vec, mn, avg, i + 1) }
      .toDF("id", "table", "vec", "rankScore", "tieScore", "rk")
  }
}
