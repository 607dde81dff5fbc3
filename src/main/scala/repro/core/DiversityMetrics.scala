package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.util.VecOps

/** The two adapted diversity measures of §5.4, over one set of cosine
  * distances: all query↔selected distances plus all pairwise distances
  * among the selected. Query-query distances are excluded (constant across
  * methods).
  *
  * Average Diversity (Eq. 1): the sum of that set, normalized by n + k.
  * Min Diversity (Eq. 2): the minimum of that set.
  *
  * The driver implementation is the reference; the Spark implementation
  * expresses the same computation as a DataFrame dataflow and is
  * oracle-checked against DuckDB in the test suite.
  */
object DiversityMetrics {

  /** Eq. (1) and Eq. (2) of one selection. */
  final case class Diversity(avg: Double, min: Double)

  /** Both measures from one pass over the distance set. The set must be
    * non-empty: at least one selected tuple, and a query tuple or a second
    * selected tuple.
    */
  def diversity(query: Seq[Array[Double]], selected: Seq[Array[Double]]): Diversity = {
    val n = query.size; val k = selected.size
    require(k > 0, "no selected tuples")
    require(n > 0 || k >= 2, "diversity needs at least one distance")
    var m = Double.MaxValue
    var cross = 0.0
    query.foreach(q => selected.foreach { t =>
      val d = VecOps.cosineDist(q, t); cross += d; m = math.min(m, d)
    })
    var within = 0.0
    var i = 0
    while (i < k) {
      var j = i + 1
      while (j < k) {
        val d = VecOps.cosineDist(selected(i), selected(j)); within += d; m = math.min(m, d)
        j += 1
      }
      i += 1
    }
    Diversity((cross + within) / (n + k), m)
  }

  // -------------------------------------------------------------------
  // Spark dataflow version over (id LONG, vec ARRAY<DOUBLE>) frames.
  // -------------------------------------------------------------------

  private val cosDistUdf = udf { (a: Seq[Double], b: Seq[Double]) =>
    VecOps.cosineDist(a.toArray, b.toArray)
  }

  /** All query↔selected plus selected-pairwise (i<j) distances as one frame
    * with columns (kind STRING, d DOUBLE).
    */
  def distancesDF(queryDf: DataFrame, selDf: DataFrame): DataFrame = {
    val q = queryDf.select(col("id") as "qid", col("vec") as "qvec")
    val s1 = selDf.select(col("id") as "id1", col("vec") as "vec1")
    val s2 = selDf.select(col("id") as "id2", col("vec") as "vec2")
    val cross = q.crossJoin(s1)
      .select(lit("cross") as "kind", cosDistUdf(col("qvec"), col("vec1")) as "d")
    val within = s1.crossJoin(s2)
      .where(col("id1") < col("id2"))
      .select(lit("within") as "kind", cosDistUdf(col("vec1"), col("vec2")) as "d")
    cross.unionByName(within)
  }

  /** Spark [[diversity]]: the sum and the min of [[distancesDF]] in one
    * aggregate. The sum is Spark's, so Eq. (1) may differ from the driver's
    * in the last bits; Eq. (2) is exact.
    */
  def sparkDiversity(queryDf: DataFrame, selDf: DataFrame): Diversity = {
    val n = queryDf.count(); val k = selDf.count()
    require(k > 0, "no selected tuples")
    require(n > 0 || k >= 2, "diversity needs at least one distance")
    val row = distancesDF(queryDf, selDf).agg(sum("d"), min("d")).head
    Diversity(row.getDouble(0) / (n + k), row.getDouble(1))
  }
}
