package repro.exp

import repro.SparkSpec
import repro.core.{ColumnAlignment, DiversifyTuples, Dust, OuterUnion}
import repro.data.{Generators, LakeBenchmark}
import repro.embed.{ColumnEmbedders, TfIdf}

/** Smoke tests for the experiment harnesses (full runs live in bench/). */
class ExperimentHarnessSpec extends SparkSpec {

  test("Fig5 stats cover all four lite benchmarks") {
    val rows = Fig5Stats.all()
    assert(rows.map(_.benchmark) ==
      Vector("TUS-lite", "TUS-Sampled-lite", "SANTOS-lite", "UGEN-V1-lite"))
    assert(Fig5Stats.render(rows).contains("SANTOS-lite"))
  }

  test("Table1 method registry matches the paper's ten rows") {
    assert(Table1Experiment.methods.size == 10)
    assert(Table1Experiment.methods.count(_.bipartite) == 1)
    assert(Table1Experiment.methods.map(m => (m.group, m.display)).distinct.size == 10)
  }

  test("Table1 single-method evaluation produces sane P/R/F1") {
    val r = Table1Experiment.evalMethod(
      Table1Experiment.methods(6), Benchmarks.ugen)
    assert(r.p >= 0 && r.p <= 1 && r.r >= 0 && r.r <= 1 && r.f1 >= 0 && r.f1 <= 1)
    assert(r.avgTimeMs > 0)
  }

  test("Table2 instances share the pruned candidate sets across algorithms") {
    val insts = Table2Experiment.instances(Benchmarks.ugen, s = 50)
    assert(insts.nonEmpty)
    insts.foreach { i =>
      assert(i.cands.size <= 50)
      assert(i.queryEmb.nonEmpty)
      assert(i.cands.map(_.id).distinct.size == i.cands.size)
    }
  }

  private def bits(v: Array[Double]): Seq[Long] = v.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("Table2 instances equal alignment, outer union, embedding and pruning composed one by one") {
    val bench = Benchmarks.ugen
    val tfidf = Benchmarks.tfidfFor(bench)
    val model = Models.dustRoberta
    val expected = bench.queries.filter(bench.unionableFor(_).nonEmpty).map { q =>
      val tables = bench.unionableFor(q)
      val aligned = ColumnAlignment.alignHolistic(q, tables, ColumnEmbedders.dustDefault, tfidf)
      val lakeEmb = Dust.embedTuples(model, OuterUnion.union(q, tables, aligned))
      (q.name, DiversifyTuples.prune(lakeEmb, 50), model.embedAll(OuterUnion.queryTuples(q).map(_.pairs)))
    }
    val insts = Table2Experiment.instances(bench, s = 50)
    assert(insts.map(_.name) == expected.map(_._1))
    insts.zip(expected).foreach { case (inst, (_, cands, queryEmb)) =>
      assert(inst.cands.map(c => (c.id, c.table, bits(c.vec))) == cands.map(c => (c.id, c.table, bits(c.vec))),
        inst.name)
      assert(inst.queryEmb.map(bits) == queryEmb.map(bits), inst.name)
    }
  }

  test("Fig 8: Algorithm 2 on one prepared IMDB-lite union selects what Dust.run selects at every k") {
    val (query, lake) = Generators.imdbLite
    val bench = LakeBenchmark("IMDB-lite", Vector(query), lake)
    val tfidf = TfIdf.fit(lake :+ query)
    val model = Models.dustRoberta
    val prepared = Dust.prepare(query, lake, model, tfidf)
    Seq(20, 40, 60).foreach { k =>
      val cfg = Dust.Config(topN = lake.size, k = k)
      val full = Dust.run(query, bench, model, cfg, Some(tfidf), Some(lake))
      assert(full.selected.size == k)
      assert(Dust.diversify(prepared, cfg).selected.map(_.id) == full.selected.map(_.id), s"k=$k")
    }
  }

  test("Scaling cloud generator is deterministic and structured") {
    val a = ScalingExperiment.cloud(100)
    val b = ScalingExperiment.cloud(100)
    assert(a.map(_.id) == b.map(_.id))
    assert(a.head.vec.toSeq == b.head.vec.toSeq)
    assert(a.size == 100)
  }

  test("Scaling varyK timings cover every (method, k) cell") {
    val rows = ScalingExperiment.varyK(Seq(5, 10), s = 120)
    assert(rows.size == 6)
    assert(rows.forall(_.millis >= 0))
  }

  test("pImpact returns one row per p") {
    val rows = ScalingExperiment.pImpact(Seq(1, 2), s = 100, k = 10)
    assert(rows.map(_.p) == Vector(1, 2))
    rows.foreach(r => assert(r.avgDiv > 0 && r.minDiv >= 0))
  }

  test("wins tally: every method within 1e-12 of the best wins, a method that never ran renders -") {
    import DiversityWins._
    def sc(m: String, avg: Double, min: Double) =
      Scored(m, repro.core.DiversityMetrics.Diversity(avg, min), Some(3000000L))
    val perQuery = Seq(
      Seq(sc("A", 1.0, 0.5), sc("B", 1.0 - 5e-13, 0.5 - 2e-12)),
      Seq(sc("A", 0.2, 0.3), sc("B", 0.9, 0.3 - 5e-13)))
    val rs = tally(Seq("A", "B", "C"), perQuery)
    assert(rs.map(r => (r.method, r.avgWins, r.minWins, r.included)) ==
      Vector(("A", 1, 2, true), ("B", 2, 1, true), ("C", 0, 0, false)))
    assert(rs.head.avgTimeMs.contains(3.0))
    def cells(t: Seq[MethodResult]) = render(Seq(new Table {
      val benchmark = "X"; val results = t.toVector
    })).linesIterator.toVector.map(_.split('|').map(_.trim).filter(_.nonEmpty).toSeq)
    assert(cells(rs).head == Seq("Method", "X #Avg", "X #Min", "X Time(ms)"))
    assert(cells(rs).last == Seq("C", "-", "-", "-"))
    val untimed = tally(Seq("A", "C"), perQuery.map(_.map(_.copy(nanos = None))))
    assert(cells(untimed).head == Seq("Method", "X #Avg", "X #Min"))
    assert(cells(untimed).last == Seq("C", "-", "-"))
  }

  test("Fmt.table renders aligned rows") {
    val t = Fmt.table(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    assert(t.linesIterator.size == 4)
    assert(t.contains("| a  | bb |"))
  }

  test("Fmt.timed measures elapsed time") {
    val (v, ns) = Fmt.timed { Thread.sleep(5); 42 }
    assert(v == 42 && ns >= 4 * 1000 * 1000L)
  }
}
