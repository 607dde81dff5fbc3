package repro.core

import repro.SparkSpec
import repro.core.DiversifyTuples.EmbTuple
import repro.util.Rng

/** Algorithm 2's engines against [[NaiveDust]], its definition written out:
  * the driver (`DiversifyTuples.run`) and the Spark composition
  * (`sparkPrune` → `clusterMedoids` → `sparkRerank`) must select the
  * reference's ids in the reference's order.
  */
class NaiveDustSpec extends SparkSpec {
  import NaiveDustSpec.Instance

  /** Gaussian vectors, so no two distances tie: n ≤ 120, 1–5 tables,
    * dimensions 2–16, 1–6 query tuples, k ≤ 15, p ≤ 3 and k ≤ s ≤ n + k + 10.
    */
  private def randomInstance(seed: Long): Instance = {
    val rng = new Rng(seed)
    val n = 1 + rng.nextInt(120)
    val dim = 2 + rng.nextInt(15)
    val tables = 1 + rng.nextInt(5)
    val tuples = Vector.tabulate(n)(i => EmbTuple(i.toLong, s"t${rng.nextInt(tables)}", Array.fill(dim)(rng.nextGaussian())))
    val query = Vector.fill(1 + rng.nextInt(6))(Array.fill(dim)(rng.nextGaussian()))
    val k = 1 + rng.nextInt(15)
    Instance(s"seed $seed", tuples, query, k, p = 1 + rng.nextInt(3), s = k + rng.nextInt(n + 11))
  }

  /** One tuple; one table; k above the candidate count; s = k; one zero vector. */
  private lazy val degenerate: Vector[Instance] = {
    val base = randomInstance(7001)
    val rng = new Rng(7002)
    def gaussians(n: Int, dim: Int = 6) = Vector.tabulate(n)(i =>
      EmbTuple(i.toLong, s"t${i % 3}", Array.fill(dim)(rng.nextGaussian())))
    val query = Vector.fill(3)(Array.fill(6)(rng.nextGaussian()))
    val withZero = gaussians(12).updated(5, EmbTuple(5L, "t2", new Array[Double](6)))
    Vector(
      Instance("one tuple", gaussians(1), query, k = 3, p = 2, s = 3),
      Instance("one table", base.tuples.map(_.copy(table = "t")), base.query, base.k, base.p, base.s),
      Instance("k above the candidate count", gaussians(10), query, k = 20, p = 2, s = 40),
      Instance("s = k", gaussians(40), query, k = 8, p = 3, s = 8),
      Instance("one zero vector", withZero, query, k = 5, p = 2, s = 30),
      Instance("one zero vector, pruned", withZero, query, k = 5, p = 2, s = 8),
    )
  }

  private def expected(in: Instance): Vector[Long] = NaiveDust.run(in.tuples, in.query, in.k, in.p, in.s).map(_.id)

  private def driver(in: Instance): Vector[Long] =
    DiversifyTuples.run(in.tuples, in.query, in.k, in.p, in.s).map(_.id)

  private def onSpark(in: Instance): Vector[Long] = {
    import DiversifyTuples._
    val pruned = fromDF(sparkPrune(spark, toDF(spark, in.tuples), in.s))
    val queryDf = toDF(spark, in.query.zipWithIndex.map { case (v, i) => EmbTuple(i.toLong, "q", v) })
    fromDF(sparkRerank(spark, toDF(spark, clusterMedoids(pruned, in.k * in.p)), queryDf, in.k).orderBy("rk")).map(_.id)
  }

  test("NaiveDust's UPGMA merges the closest clusters first") {
    // Unit vectors at these angles (degrees): three groups by cosine distance.
    val vecs = Vector(0.0, 10.0, 100.0, 115.0, 250.0).map(a => Array(math.cos(a.toRadians), math.sin(a.toRadians)))
    assert(NaiveDust.upgma(vecs, 3) == Vector(Vector(0, 1), Vector(2, 3), Vector(4)))
    assert(NaiveDust.upgma(vecs, 2) == Vector(Vector(0, 1, 2, 3), Vector(4)))
  }

  test("DiversifyTuples.run selects NaiveDust's ids in its order on random instances") {
    (1L to 150L).map(randomInstance).foreach { in =>
      val want = expected(in)
      assert(want.size == math.min(in.k, in.tuples.size), in.name)
      assert(driver(in) == want, in.name)
    }
  }

  test("DiversifyTuples.run selects NaiveDust's ids on degenerate instances") {
    degenerate.foreach(in => assert(driver(in) == expected(in), in.name))
  }

  test("the Spark composition selects NaiveDust's ids in its order") {
    (degenerate ++ (1L to 4L).map(randomInstance)).foreach(in => assert(onSpark(in) == expected(in), in.name))
  }
}

object NaiveDustSpec {
  private final case class Instance(name: String, tuples: Vector[EmbTuple], query: Vector[Array[Double]],
                                    k: Int, p: Int, s: Int)
}
