package repro.core

import repro.SparkSpec
import repro.data.Generators
import repro.embed.{ColumnEmbedders, TfIdf}
import repro.exp.{Benchmarks, Models}
import repro.search.UnionSearch

/** End-to-end Algorithm 1 integration tests, including driver/Spark
  * pipeline equivalence.
  */
class DustPipelineSpec extends SparkSpec {
  private lazy val bench = Generators.ugenLite
  private lazy val model = Models.dustRoberta
  private lazy val q = bench.queries.head
  private lazy val cfg = Dust.Config(topN = 6, k = 8, s = 200)
  private lazy val result = Dust.run(q, bench, model, cfg, tfidfOpt = Some(Benchmarks.tfidfFor(bench)))

  test("pipeline returns k selected tuples") {
    assert(result.selected.size == cfg.k)
  }

  test("selected tuples come from searched tables") {
    val names = result.tables.map(_.name).toSet
    assert(result.selected.forall(t => names.contains(t.table)))
  }

  test("searched tables are mostly unionable with the query") {
    val frac = result.tables.count(_.baseId == q.baseId).toDouble / result.tables.size
    assert(frac >= 0.5, s"unionable fraction $frac")
  }

  test("selected tuples are distinct") {
    assert(result.selected.map(_.id).distinct.size == cfg.k)
  }

  test("selection is deterministic") {
    val again = Dust.run(q, bench, model, cfg, tfidfOpt = Some(Benchmarks.tfidfFor(bench)))
    assert(again.selected.map(_.id) == result.selected.map(_.id))
  }

  test("spark pipeline selects the same tuples as the driver pipeline") {
    val sparkRes = Dust.runSpark(spark, q, bench, model, cfg,
      tfidfOpt = Some(Benchmarks.tfidfFor(bench)))
    assert(sparkRes.selected.map(_.id) == result.selected.map(_.id))
    // SANTOS-lite's first query, with search, at a larger k and s.
    val santos = Benchmarks.santos
    val sq = santos.queries.head
    val santosCfg = Dust.Config(topN = 6, k = 20, s = 400)
    val tfidf = Some(Benchmarks.tfidfFor(santos))
    val driver = Dust.run(sq, santos, model, santosCfg, tfidfOpt = tfidf)
    val onSpark = Dust.runSpark(spark, sq, santos, model, santosCfg, tfidfOpt = tfidf)
    assert(driver.selected.size == santosCfg.k)
    assert(onSpark.selected.map(_.id) == driver.selected.map(_.id))
  }

  test("spark pipeline selects the driver's tuples on every query of a big union") {
    // big_union's shape: long bases, so each query unions several times s
    // tuples and its tables hold many exact-duplicate rows.
    val big = Generators.generate(Generators.santosLiteConfig.copy(
      nBases = 2, rowsPerBase = 1000, tablesPerBase = 8, nQueries = 2))
    val bigCfg = Dust.Config(s = Benchmarks.pruneS)
    val tfidf = Some(TfIdf.fit(big.lake ++ big.queries))
    big.queries.foreach { bq =>
      val gt = Some(big.unionableFor(bq))
      val driver = Dust.run(bq, big, model, bigCfg, tfidfOpt = tfidf, tablesOverride = gt)
      assert(driver.lakeTuples.size > bigCfg.s)
      val onSpark = Dust.runSpark(spark, bq, big, model, bigCfg, tfidfOpt = tfidf, tablesOverride = gt)
      assert(onSpark.selected.map(_.id) == driver.selected.map(_.id), bq.name)
    }
  }

  test("DUST's selection is more min-diverse than the most-similar tuples (Fig 1 claim)") {
    val starmieTop = repro.search.TupleSearch.topK(result.lakeTuples, result.queryTuples, cfg.k)
    def minDiv(sel: Seq[OuterUnion.UnionTuple]): Double =
      DiversityMetrics.diversity(result.queryEmb, sel.map(t => model.embed(t.pairs))).min
    assert(minDiv(result.selected) >= minDiv(starmieTop))
  }

  test("selected tuples favor novel base rows over query duplicates") {
    val qRows = result.queryTuples.map(_.baseRowId).toSet
    val dupFracSelected = result.selected.count(t => qRows.contains(t.baseRowId)).toDouble / cfg.k
    val dupFracLake = result.lakeTuples.count(t => qRows.contains(t.baseRowId)).toDouble /
      result.lakeTuples.size
    assert(dupFracSelected <= dupFracLake + 0.1,
      s"selected dup frac $dupFracSelected vs lake $dupFracLake")
  }

  test("tablesOverride bypasses the search step") {
    val gt = bench.unionableFor(q).take(3)
    val r = Dust.run(q, bench, model, cfg.copy(topN = 99), tablesOverride = Some(gt),
      tfidfOpt = Some(Benchmarks.tfidfFor(bench)))
    assert(r.tables == gt)
  }

  test("the top of rankTables as tablesOverride selects what search selects (Table 3)") {
    for (b <- Seq(Benchmarks.santos, Benchmarks.ugen); bq <- b.queries if b.unionableFor(bq).nonEmpty) {
      val tfidf = Benchmarks.tfidfFor(b)
      val c = Dust.Config(topN = b.unionableFor(bq).size, k = 10)
      val ranked = UnionSearch.rankTables(bq, b, ColumnEmbedders.dustDefault, tfidf)
      val searched = Dust.run(bq, b, model, c, tfidfOpt = Some(tfidf))
      val overridden = Dust.run(bq, b, model, c, tfidfOpt = Some(tfidf),
        tablesOverride = Some(ranked.take(c.topN).map(_.table)))
      assert(overridden.tables == searched.tables, s"${b.name}/${bq.name}")
      assert(overridden.selected.map(_.id) == searched.selected.map(_.id), s"${b.name}/${bq.name}")
    }
  }

  test("both engines reject a query with no rows") {
    val empty = q.copy(rows = Vector.empty, baseRowIds = Vector.empty)
    val tfidf = Some(Benchmarks.tfidfFor(bench))
    intercept[IllegalArgumentException](Dust.run(empty, bench, model, cfg, tfidfOpt = tfidf))
    intercept[IllegalArgumentException](Dust.runSpark(spark, empty, bench, model, cfg, tfidfOpt = tfidf))
  }

  test("Config rejects topN, k or s below 1") {
    intercept[IllegalArgumentException](Dust.Config(topN = 0))
    intercept[IllegalArgumentException](Dust.Config(k = 0))
    intercept[IllegalArgumentException](Dust.Config(s = 0))
    intercept[IllegalArgumentException](Dust.Config(s = -1))
    assert(Dust.Config(topN = 1, k = 1, s = 1).s == 1)
  }

  test("Config rejects s below k") {
    intercept[IllegalArgumentException](Dust.Config(k = 30, s = 29))
    assert(Dust.Config(k = 30, s = 30).s == 30)
  }

  test("diversify selects min(k, |union|) distinct tuples, also from a union smaller than k") {
    val u = Dust.prepare(q, bench.unionableFor(q).take(1), model, Benchmarks.tfidfFor(bench))
    val n = u.lakeTuples.size
    assert(n >= 2)
    Seq(n - 1, n, n + 5).foreach { k =>
      val ids = Dust.diversify(u, Dust.Config(k = k)).selected.map(_.id)
      assert(ids.size == math.min(k, n) && ids.distinct.size == ids.size, s"k=$k n=$n")
    }
  }

  test("neither engine selects a tuple with no aligned value (Table 3 setting)") {
    for ((b, k) <- Seq(Benchmarks.santos -> Benchmarks.santosK, Benchmarks.ugen -> Benchmarks.ugenK);
         bq <- b.queries if b.unionableFor(bq).nonEmpty) {
      val tfidf = Some(Benchmarks.tfidfFor(b))
      val c = Dust.Config(topN = b.unionableFor(bq).size, k = k)
      val driver = Dust.run(bq, b, model, c, tfidfOpt = tfidf)
      val onSpark = Dust.runSpark(spark, bq, b, model, c, tfidfOpt = tfidf)
      assert(driver.lakeTuples.forall(_.pairs.nonEmpty), s"${b.name}/${bq.name}")
      Seq(driver, onSpark).foreach { r =>
        assert(r.selected.size == math.min(k, r.lakeTuples.size), s"${b.name}/${bq.name}")
        assert(r.selected.forall(_.pairs.nonEmpty), s"${b.name}/${bq.name}")
      }
    }
  }

  test("embedTuples yields one embedding per tuple with stable ids") {
    val embs = Dust.embedTuples(model, result.lakeTuples.take(10))
    assert(embs.map(_.id) == result.lakeTuples.take(10).map(_.id))
    assert(embs.forall(_.vec.length == DustModel.Out))
  }
}
