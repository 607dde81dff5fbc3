package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rng

class GeneratorsSpec extends AnyFunSuite {
  private lazy val tus = Generators.tusLite
  private lazy val santos = Generators.santosLite
  private lazy val ugen = Generators.ugenLite

  test("tusLite has the configured number of queries") {
    assert(tus.queries.size == Generators.tusLiteConfig.nQueries)
  }

  test("tusLite lake contains per-base derivations plus near-copies") {
    val cfg = Generators.tusLiteConfig
    assert(tus.lake.size == cfg.nBases * cfg.tablesPerBase + cfg.nQueries)
  }

  test("tables are rectangular with provenance") {
    (tus.lake ++ tus.queries).foreach { t =>
      assert(t.rows.forall(_.length == t.nCols))
      assert(t.baseRowIds.length == t.nRows)
    }
  }

  test("every query has unionable tables") {
    tus.queries.foreach(q => assert(tus.unionableFor(q).nonEmpty))
  }

  test("unionableFor only returns same-base tables") {
    val q = tus.queries.head
    assert(tus.unionableFor(q).forall(_.baseId == q.baseId))
  }

  test("generation is deterministic") {
    val again = Generators.generate(Generators.tusLiteConfig)
    assert(again.lake.map(_.name) == tus.lake.map(_.name))
    assert(again.lake.head.rows == tus.lake.head.rows)
  }

  test("near-copy table contains all the query's rows") {
    tus.queries.zipWithIndex.foreach { case (q, qi) =>
      val copy = tus.lake.find(_.name == s"${tus.name}-dl-copy$qi").get
      assert(q.baseRowIds.toSet.subsetOf(copy.baseRowIds.toSet))
      assert(copy.nRows >= q.nRows)
    }
  }

  test("near-copy is only marginally larger than the query (Fig 1 Table (b))") {
    val q = tus.queries.head
    val copy = tus.lake.find(_.name == s"${tus.name}-dl-copy0").get
    assert(copy.nRows - q.nRows <= 2)
  }

  test("derived tables keep at least two columns") {
    tus.lake.foreach(t => assert(t.nCols >= 2))
  }

  test("string values come from the base's vocabulary (own column or bleed)") {
    val t = tus.lake.head
    t.cols.zipWithIndex.foreach { case (c, j) =>
      if (!c.numeric) {
        t.columnValues(j).foreach { v =>
          assert(v.startsWith(s"t${t.baseId}c"), s"$v not in base ${t.baseId} vocab (${c.header})")
        }
      }
    }
  }

  test("a plurality of each column's values come from its own vocabulary") {
    // Bleed draws uniformly over sibling columns, so the own-vocabulary
    // share must stay the single largest source (plurality, not majority,
    // under the high-bleed configs).
    val t = tus.lake.head
    t.cols.zipWithIndex.foreach { case (c, j) =>
      if (!c.numeric) {
        val vs = t.columnValues(j)
        val own = vs.count(_.startsWith(s"t${t.baseId}c${c.baseCol}v"))
        assert(own.toDouble / vs.size > 0.4, s"column ${c.header} mostly bleed")
      }
    }
  }

  test("numeric columns hold plain numbers") {
    val numCols = for {
      t <- santos.lake
      (c, j) <- t.cols.zipWithIndex if c.numeric
      v <- t.columnValues(j)
    } yield v
    assert(numCols.nonEmpty)
    numCols.foreach(v => assert(v.forall(_.isDigit)))
  }

  test("common tokens appear across different bases") {
    def commons(b: LakeBenchmark): Set[String] =
      b.lake.flatMap(t => t.rows.flatten.flatten).flatMap(Tokenizer.tokens)
        .filter(_.startsWith("com")).toSet
    assert(commons(tus).nonEmpty)
  }

  test("santosLite has a higher numeric column share than tusLite") {
    def numericFrac(b: LakeBenchmark): Double = {
      val cols = b.lake.flatMap(_.cols)
      cols.count(_.numeric).toDouble / cols.size
    }
    assert(numericFrac(santos) > numericFrac(tus))
  }

  test("ugenLite tables are small (LLM-scale)") {
    assert(ugen.lake.forall(_.nRows <= 15))
  }

  test("ugenLite queries fit the simulated LLM prompt budget") {
    assert(ugen.queries.forall(_.nRows <= repro.search.LlmSim.MaxPromptTuples))
  }

  test("tusSampledLite has at most 10 unionable tables per query") {
    val ts = Generators.tusSampledLite
    ts.queries.foreach { q =>
      val u = ts.unionableFor(q).size
      assert(u > 0 && u <= 11) // 10 sampled + possibly the query's near-copy
    }
  }

  test("tusSampledLite lake only holds bases of its queries") {
    val ts = Generators.tusSampledLite
    val qb = ts.queries.map(_.baseId).toSet
    assert(ts.lake.forall(t => qb.contains(t.baseId)))
  }

  test("imdbLite query and tables share the 13-column schema") {
    val (q, lake) = Generators.imdbLite
    assert(q.nCols == 13)
    lake.foreach(t => assert(t.headers == q.headers))
  }

  test("imdbLite tables are row windows of the base") {
    val (_, lake) = Generators.imdbLite
    lake.foreach { t =>
      val ids = t.baseRowIds
      assert(ids == (ids.head to ids.last).toVector) // contiguous window
    }
  }

  test("imdbLite lake holds 20 unionable tables of ~80-120 rows") {
    val (_, lake) = Generators.imdbLite
    assert(lake.size == 20)
    lake.foreach(t => assert(t.nRows >= 80 && t.nRows <= 120))
  }

  test("benchmark stats are positive") {
    Seq(tus, santos, ugen).foreach { b =>
      assert(b.nLakeTuples > 0 && b.nLakeColumns > 0 && b.avgUnionablePerQuery > 0)
    }
  }

  test("rowPairs skips null pads") {
    val t = SimpleTable("x", 0,
      Vector(ColumnSpec("a", 0, numeric = false), ColumnSpec("b", 1, numeric = false)),
      Vector(Vector(Some("v"), None)), Vector(0))
    assert(t.rowPairs(0) == Vector(("a", "v")))
  }

  test("dense constructor wraps all values as present") {
    val t = SimpleTable.dense("x", 0, Vector(ColumnSpec("a", 0, numeric = false)), Vector(Vector("1")))
    assert(t.rows == Vector(Vector(Some("1"))))
    assert(t.baseRowIds == Vector(0))
  }

  test("ragged rows are rejected") {
    intercept[IllegalArgumentException] {
      SimpleTable("bad", 0, Vector(ColumnSpec("a", 0, numeric = false)),
        Vector(Vector(Some("1"), Some("2"))), Vector(0))
    }
  }
}
