package repro.core

import java.util.Arrays
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{ColumnSpec, Generators, LakeBenchmark, SimpleTable}
import repro.embed.{ColumnEmbedders, TfIdf}
import repro.exp.{Benchmarks, Models, Table1Experiment}

/** The lake's column-embedding index and the per-call token tables must
  * never change a result: every vector they hand out equals the one a
  * direct computation gives, on a cold index and on a warm one.
  */
class EmbeddingReuseSpec extends AnyFunSuite {
  /** SANTOS-lite and UGEN-lite, each with its Table 3 configuration. */
  private lazy val benches: Vector[(LakeBenchmark, Dust.Config)] = Vector(
    Generators.santosLite -> Dust.Config(k = Benchmarks.santosK, s = Benchmarks.pruneS),
    Generators.ugenLite   -> Dust.Config(k = Benchmarks.ugenK, s = Benchmarks.pruneS))
  private lazy val model = Models.dustRoberta
  private def fit(b: LakeBenchmark): TfIdf = TfIdf.fit(b.lake ++ b.queries)
  private def table1Embedders = Table1Experiment.methods.map(_.embedder).distinct

  private def sameVectors(a: Seq[Array[Double]], b: Seq[Array[Double]]): Boolean =
    a.size == b.size && a.zip(b).forall { case (x, y) => Arrays.equals(x, y) }

  private def bits(vs: Seq[Array[Double]]): Seq[Seq[Long]] =
    vs.map(_.toSeq.map(java.lang.Double.doubleToRawLongBits))

  test("indexed column embeddings equal a direct embedAll for every Table 1 embedder and table") {
    benches.foreach { case (b, _) =>
      val tables = b.lake ++ b.queries
      val tfidf = fit(b)
      table1Embedders.foreach { emb =>
        val filled = tfidf.columnEmbeddings(emb, tables)
        tables.zip(filled).foreach { case (t, indexed) =>
          val direct = emb.embedAll(Vector(t), tfidf).head
          assert(sameVectors(indexed, direct), s"${emb.name} on ${b.name}/${t.name}")
          val hit = tfidf.columnEmbeddings(emb, Vector(t)).head
          assert(hit.zip(indexed).forall { case (x, y) => x eq y }, s"${emb.name} re-embedded ${t.name}")
        }
      }
    }
  }

  test("Dust.run selects the same tuples on a cold index and on a warm one") {
    benches.foreach { case (b, cfg) =>
      val shared = fit(b)
      b.queries.foreach(q => Dust.run(q, b, model, cfg, tfidfOpt = Some(shared)))
      b.queries.foreach { q =>
        val cold = Dust.run(q, b, model, cfg, tfidfOpt = Some(fit(b)))
        val warm = Dust.run(q, b, model, cfg, tfidfOpt = Some(shared))
        assert(warm.selected.map(_.id) == cold.selected.map(_.id), s"${b.name}/${q.name}")
        assert(warm.tables.map(_.name) == cold.tables.map(_.name), s"${b.name}/${q.name}")
        assert(sameVectors(warm.queryEmb, cold.queryEmb), s"${b.name}/${q.name}")
      }
    }
  }

  test("a Dust.Result's query and selected vectors equal embedAll's bits") {
    benches.foreach { case (b, cfg) =>
      val tfidf = fit(b)
      b.queries.foreach { q =>
        val r = Dust.run(q, b, model, cfg, tfidfOpt = Some(tfidf))
        assert(r.selected.nonEmpty, s"${b.name}/${q.name}")
        assert(bits(r.selectedEmb) == bits(model.embedAll(r.selected.map(_.pairs))), s"${b.name}/${q.name}")
        assert(bits(r.queryEmb) == bits(model.embedAll(r.queryTuples.map(_.pairs))), s"${b.name}/${q.name}")
      }
    }
  }

  test("Dust.prepare's query and lake embeddings equal two separate embedAll calls") {
    benches.foreach { case (b, _) =>
      val tfidf = fit(b)
      b.queries.foreach { q =>
        val u = Dust.prepare(q, b.unionableFor(q), model, tfidf)
        assert(bits(u.queryEmb) == bits(model.embedAll(u.queryTuples.map(_.pairs))), s"${b.name}/${q.name}")
        assert(bits(u.lakeEmb.map(_.vec)) == bits(model.embedAll(u.lakeTuples.map(_.pairs))), s"${b.name}/${q.name}")
        assert(u.lakeEmb.map(t => (t.id, t.table)) == u.lakeTuples.map(t => (t.id, t.table)), s"${b.name}/${q.name}")
      }
    }
  }

  test("two tables with one name but different rows get their own embeddings") {
    val cols = Vector(ColumnSpec("city", 0, numeric = false), ColumnSpec("park", 1, numeric = false))
    val a = SimpleTable.dense("t", 0, cols, Vector(Vector("fresno", "river park"), Vector("reno", "lake park")))
    val b = SimpleTable.dense("t", 0, cols, Vector(Vector("austin", "zilker"), Vector("dallas", "fair park")))
    val tfidf = TfIdf.fit(Seq(a, b))
    table1Embedders.foreach { emb =>
      val both = tfidf.columnEmbeddings(emb, Vector(a, b))
      assert(!sameVectors(both(0), both(1)), emb.name)
      assert(sameVectors(both(0), emb.embedAll(Vector(a), tfidf).head), emb.name)
      assert(sameVectors(both(1), emb.embedAll(Vector(b), tfidf).head), emb.name)
    }
  }

  test("a full Dust.run leaves the indexed column embeddings unchanged") {
    val (b, cfg) = benches(1)
    val tfidf = fit(b)
    val emb = ColumnEmbedders.dustDefault
    val tables = b.queries ++ b.lake
    b.queries.foreach(q => Dust.run(q, b, model, cfg, tfidfOpt = Some(tfidf)))
    val cached = tfidf.columnEmbeddings(emb, tables)
    val snapshot = cached.map(_.map(_.clone()))
    b.queries.foreach(q => Dust.run(q, b, model, cfg, tfidfOpt = Some(tfidf)))
    tables.indices.foreach { i =>
      assert(sameVectors(cached(i), snapshot(i)), s"a run changed ${tables(i).name}'s vectors")
      assert(sameVectors(cached(i), emb.embedAll(Vector(tables(i)), tfidf).head), s"${tables(i).name} drifted from embedAll")
    }
  }

  test("tuple embeddings through one token table equal one-by-one embeddings") {
    val b = Generators.ugenLite
    val q = b.queries.head
    val tuples = OuterUnion.queryTuples(q) ++ b.unionableFor(q).flatMap(OuterUnion.queryTuples)
    assert(sameVectors(model.embedAll(tuples.map(_.pairs)), tuples.map(t => model.embed(t.pairs))))
  }
}
