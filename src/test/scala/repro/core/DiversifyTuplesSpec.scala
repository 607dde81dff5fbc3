package repro.core

import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.core.DiversifyTuples.EmbTuple
import repro.util.{Rng, VecOps}

class DiversifyTuplesSpec extends SparkSpec {

  private def mkTuples(n: Int, seed: Long, dim: Int = 8, tables: Int = 3): Vector[EmbTuple] = {
    val rng = new Rng(seed)
    (0 until n).toVector.map(i => EmbTuple(i.toLong, s"t${i % tables}", Array.fill(dim)(rng.nextGaussian())))
  }

  // ---------------- prune ----------------

  test("prune keeps input unchanged when already within budget") {
    val ts = mkTuples(10, 1)
    assert(DiversifyTuples.prune(ts, 10) eq ts)
  }

  test("prune returns exactly s tuples") {
    assert(DiversifyTuples.prune(mkTuples(100, 2), 30).size == 30)
  }

  test("prune keeps the tuples farthest from their table mean") {
    // Table mean sits at the origin-ish; a far outlier must survive.
    val base = (0 until 20).toVector.map(i => EmbTuple(i.toLong, "t", Array(0.0 + i * 1e-3, 1.0)))
    val outlier = EmbTuple(99L, "t", Array(5.0, -1.0))
    val kept = DiversifyTuples.prune(base :+ outlier, 5)
    assert(kept.exists(_.id == 99L))
  }

  test("prune is deterministic (tie-break by id)") {
    val ts = mkTuples(50, 3)
    assert(DiversifyTuples.prune(ts, 20).map(_.id) == DiversifyTuples.prune(ts, 20).map(_.id))
  }

  test("prune means are computed per table, not globally") {
    // Two tables with different centers; within-table outliers win over
    // tuples that are far from the global center but central in their table.
    val t1 = (0 until 10).toVector.map(i => EmbTuple(i.toLong, "a", Array(10.0, 10.0 + i * 1e-3)))
    val out1 = EmbTuple(50L, "a", Array(10.0, -10.0))
    val t2 = (0 until 10).toVector.map(i => EmbTuple(100L + i, "b", Array(-10.0, -10.0 - i * 1e-3)))
    val kept = DiversifyTuples.prune(t1 ++ Vector(out1) ++ t2, 1)
    assert(kept.head.id == 50L)
  }

  // ---------------- clustering / medoids ----------------

  test("clusterMedoids returns one representative per cluster") {
    val ts = mkTuples(40, 4)
    val ms = DiversifyTuples.clusterMedoids(ts, 8)
    assert(ms.size == 8)
    assert(ms.map(_.id).distinct.size == 8)
  }

  test("clusterMedoids caps at candidate count") {
    val ts = mkTuples(5, 5)
    assert(DiversifyTuples.clusterMedoids(ts, 20).size == 5)
  }

  test("clusterMedoids of empty input is empty") {
    assert(DiversifyTuples.clusterMedoids(Vector.empty, 3).isEmpty)
  }

  test("medoids of well-separated blobs come one from each blob") {
    val rng = new Rng(6)
    val blobs = Vector(Array(10.0, 0.0), Array(-10.0, 0.0), Array(0.0, 10.0))
    val ts = blobs.zipWithIndex.flatMap { case (c, bi) =>
      (0 until 10).map(i => EmbTuple((bi * 10 + i).toLong, "t",
        Array(c(0) + 0.1 * rng.nextGaussian(), c(1) + 0.1 * rng.nextGaussian())))
    }
    val ms = DiversifyTuples.clusterMedoids(ts, 3)
    assert(ms.map(_.id / 10).toSet == Set(0L, 1L, 2L))
  }

  // ---------------- rerank (Example 5 of the paper) ----------------

  test("rerank reproduces the paper's Example 5 ranking exactly") {
    // Distances d(t, q_j) from Fig 4, one row per candidate t1..t6.
    val fig4 = Vector(
      Seq(0.3, 0.1, 0.9), Seq(0.5, 0.4, 0.6), Seq(0.75, 0.5, 0.1),
      Seq(0.4, 0.55, 0.5), Seq(0.9, 0.75, 0.01), Seq(0.0, 0.99, 0.2))
    // Query j is the unit vector e_j. A candidate's first three coordinates
    // are -100·d(t, q_j) and four integer padding coordinates bring its
    // squared norm to exactly 120², so cosineDist(t, e_j) = 1 + d(t, q_j)·5/6:
    // an increasing map of the Fig 4 distances, bit-equal where they are equal.
    def embed(ds: Seq[Double]): Array[Double] = {
      val head = ds.map(d => -math.round(100 * d).toInt)
      val rest = 120 * 120 - head.map(x => x * x).sum
      val pad = (for {
        a <- (0 to 120).iterator; b <- (0 to a).iterator; c <- (0 to b).iterator
        d2 = rest - a * a - b * b - c * c if d2 >= 0
        d = math.sqrt(d2.toDouble).round.toInt if d * d == d2
      } yield Seq(a, b, c, d)).next()
      (head ++ pad).map(_.toDouble).toArray
    }
    val cands = fig4.zipWithIndex.map { case (ds, i) => EmbTuple(i + 1L, "t", embed(ds)) }
    val query = Vector.tabulate(3)(j => Array.tabulate(7)(i => if (i == j) 1.0 else 0.0))
    for ((t, ds) <- cands.zip(fig4); (q, d) <- query.zip(ds))
      assert(math.abs(VecOps.cosineDist(t.vec, q) - (1 + d * 5 / 6)) < 1e-12)
    val ranked = DiversifyTuples.rerank(cands, query, 6)
    assert(ranked.map(_.id) == Vector(2L, 4L, 3L, 1L, 5L, 6L))
  }

  test("rerank takes only k") {
    val ts = mkTuples(20, 7)
    val q = Vector(Array.fill(8)(0.1))
    assert(DiversifyTuples.rerank(ts, q, 5).size == 5)
  }

  test("rerank requires query tuples") {
    intercept[IllegalArgumentException](DiversifyTuples.rerank(mkTuples(3, 8), Nil, 2))
  }

  test("run composes prune, cluster and rerank") {
    val ts = mkTuples(200, 9)
    val q = Vector.fill(5)(Array.fill(8)(0.0))
    val out = DiversifyTuples.run(ts, q, k = 10, p = 2, s = 100)
    assert(out.size == 10)
    assert(out.map(_.id).distinct.size == 10)
  }

  test("prune, clusterMedoids and rerank equal a two-argument cosineDist reference on tie-heavy input") {
    import repro.cluster.Hac
    def refPrune(ts: Vector[EmbTuple], s: Int): Vector[EmbTuple] =
      if (ts.size <= s) ts
      else ts.groupBy(_.table).valuesIterator.flatMap { g =>
        val mean = VecOps.mean(g.map(_.vec))
        g.map(t => (t, VecOps.cosineDist(mean, t.vec)))
      }.toVector.sortBy { case (t, d) => (-d, t.id) }.take(s).map(_._1)
    def refMedoids(cs: Vector[EmbTuple], m: Int): Vector[EmbTuple] =
      if (cs.isEmpty) cs
      else {
        val vecs = cs.map(_.vec)
        val labels = Hac.upgma(Hac.distMatrix(vecs, VecOps.cosineDist)).cut(math.min(m, cs.size))
        cs.indices.groupBy(labels(_)).toVector.sortBy(_._1).map { case (_, members) =>
          cs(members(VecOps.medoidIndex(members.map(vecs(_)), VecOps.cosineDist)))
        }
      }
    def refRerank(cs: Vector[EmbTuple], query: Seq[Array[Double]], k: Int): Vector[EmbTuple] =
      cs.map { t =>
        val ds = query.map(VecOps.cosineDist(t.vec, _))
        (t, ds.min, ds.sum / ds.size)
      }.sortBy { case (t, mn, avg) => (-mn, -avg, t.id) }.take(k).map(_._1)

    val rng = new Rng(29)
    for (trial <- 0 until 12) {
      // Few prototypes, each copied many times across few tables, plus zero
      // vectors and -0.0 entries; the query holds copies of candidates, so
      // distance-0 ties reach the re-rank's min and average.
      val dim = 2 + trial % 7
      val protos = Vector.fill(3 + trial)(Array.tabulate(dim)(i => if (i == trial % dim) -0.0 else rng.nextGaussian())) ++
        Vector(new Array[Double](dim), Array.fill(dim)(-0.0))
      val n = 60 + 20 * trial
      val ts = (0 until n).toVector.map(i =>
        EmbTuple(i.toLong, s"t${rng.nextInt(1 + trial % 4)}", protos(rng.nextInt(protos.size))))
      val query = Vector.fill(1 + trial % 5)(protos(rng.nextInt(protos.size))) :+ ts(rng.nextInt(n)).vec
      val s = n / 2 + trial
      val pruned = DiversifyTuples.prune(ts, s)
      assert(pruned.map(_.id) == refPrune(ts, s).map(_.id), s"prune trial $trial")
      for (m <- Seq(1, 4, 2 + trial, s)) {
        val medoids = DiversifyTuples.clusterMedoids(pruned, m)
        assert(medoids.map(_.id) == refMedoids(pruned, m).map(_.id), s"clusterMedoids trial $trial m=$m")
        for (k <- Seq(1, 3, medoids.size))
          assert(DiversifyTuples.rerank(medoids, query, k).map(_.id) == refRerank(medoids, query, k).map(_.id),
            s"rerank trial $trial m=$m k=$k")
      }
      assert(DiversifyTuples.rerank(ts, query, n).map(_.id) == refRerank(ts, query, n).map(_.id), s"rerank trial $trial")
    }
  }

  // ---------------- Spark dataflow equivalence + oracle ----------------

  test("sparkPrune selects the same ids as the driver prune") {
    // Tie-heavy: ten exact-duplicate vectors, each copied four times into
    // each of three tables, so every score is shared by four tuples.
    val rng = new Rng(17)
    val protos = Vector.fill(10)(Array.fill(8)(rng.nextGaussian()))
    val tieHeavy = (0 until 120).toVector.map(i => EmbTuple(i.toLong, s"t${i % 3}", protos(i / 3 % 10)))
    val cut = DiversifyTuples.prune(tieHeavy, 30)
    assert(tieHeavy.exists(t => !cut.exists(_.id == t.id) && t.table == cut.last.table &&
      t.vec.sameElements(cut.last.vec)), "s must cut through a tie group")
    for ((ts, s) <- Seq((mkTuples(120, 10), 40), (tieHeavy, 30), (mkTuples(30, 10), 40))) {
      val driver = DiversifyTuples.prune(ts, s).map(_.id)
      val sparkIds = DiversifyTuples.fromDF(
        DiversifyTuples.sparkPrune(spark, DiversifyTuples.toDF(spark, ts), s)).map(_.id)
      assert(sparkIds == driver, s"n=${ts.size} s=$s")
    }
  }

  test("sparkRerank selects the same ids in the same order as the driver") {
    val cands = mkTuples(30, 11)
    val q = mkTuples(6, 12).map(_.vec)
    val qDf = DiversifyTuples.toDF(spark, q.zipWithIndex.map { case (v, i) => EmbTuple(i.toLong, "q", v) })
    // The second input duplicates every candidate, so ties are resolved by id.
    for (cs <- Seq(cands, cands ++ cands.map(c => c.copy(id = c.id + 100)))) {
      val driver = DiversifyTuples.rerank(cs, q, 8).map(_.id)
      val top = DiversifyTuples.sparkRerank(spark, DiversifyTuples.toDF(spark, cs), qDf, 8)
        .orderBy("rk").select("id").collect().map(_.getLong(0)).toVector
      assert(top == driver)
    }
  }

  test("oracle: rerank top-k matches DuckDB SQL over the distance table") {
    // Gaussian candidates and query tuples, so no two scores tie.
    import spark.implicits._
    val cands = mkTuples(40, 13)
    val query = mkTuples(5, 14)
    val k = 12
    val top = DiversifyTuples.sparkRerank(spark, DiversifyTuples.toDF(spark, cands), DiversifyTuples.toDF(spark, query), k)
    val dists = for (c <- cands; q <- query) yield (c.id.toString, q.id.toString, VecOps.cosineDist(c.vec, q.vec).toString)
    Oracle.assertEquivalent(top.select(col("id") as "cid", col("rk")),
      s"""SELECT cid, row_number() OVER (ORDER BY min(d) DESC, avg(d) DESC, cid ASC) AS rk
          FROM (SELECT CAST(cid AS BIGINT) AS cid, CAST(d AS DOUBLE) AS d FROM dists)
          GROUP BY cid ORDER BY rk LIMIT $k""",
      "dists" -> dists.toDF("cid", "qid", "d"))
  }

  test("oracle: per-table embedding means match DuckDB") {
    // sparkPrune against §5.1 in SQL: per-table means, each row's cosine
    // distance from its mean, the top s by (score desc, id asc). Gaussian
    // tuples, so no two scores tie.
    import spark.implicits._
    val ts = mkTuples(60, 15, dim = 4)
    val s = 20
    val kept = DiversifyTuples.fromDF(DiversifyTuples.sparkPrune(spark, DiversifyTuples.toDF(spark, ts), s)).map(_.id)
    val cells = for (t <- ts; (x, pos) <- t.vec.toSeq.zipWithIndex) yield (t.id.toString, t.table, pos.toString, x.toString)
    Oracle.assertEquivalent(kept.zipWithIndex.map { case (id, i) => (id, i + 1) }.toDF("id", "rk"),
      s"""WITH v AS (SELECT CAST(id AS BIGINT) AS id, tbl, CAST(pos AS INTEGER) AS pos, CAST(x AS DOUBLE) AS x
                     FROM cells),
               means AS (SELECT tbl, pos, avg(x) AS m FROM v GROUP BY tbl, pos),
               scores AS (SELECT v.id, 1 - sum(v.x * means.m) / (sqrt(sum(v.x * v.x)) * sqrt(sum(means.m * means.m)))
                                 AS score
                          FROM v JOIN means ON v.tbl = means.tbl AND v.pos = means.pos GROUP BY v.id)
          SELECT id, row_number() OVER (ORDER BY score DESC, id ASC) AS rk FROM scores ORDER BY rk LIMIT $s""",
      "cells" -> cells.toDF("id", "tbl", "pos", "x"))
  }

  test("toDF/fromDF round-trips tuples") {
    val ts = mkTuples(12, 16)
    val back = DiversifyTuples.fromDF(DiversifyTuples.toDF(spark, ts)).sortBy(_.id)
    assert(back.map(_.id) == ts.map(_.id))
    back.zip(ts).foreach { case (a, b) =>
      assert(a.table == b.table && a.vec.toSeq == b.vec.toSeq)
    }
  }
}
