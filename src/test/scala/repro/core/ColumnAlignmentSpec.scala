package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Generators
import repro.embed.{ColumnEmbedders, TfIdf}
import repro.exp.Benchmarks

class ColumnAlignmentSpec extends AnyFunSuite {
  private lazy val bench = Generators.ugenLite
  private lazy val tfidf = Benchmarks.tfidfFor(bench)
  private lazy val q = bench.queries.head
  private lazy val tables = bench.unionableFor(q)
  private lazy val aligned =
    ColumnAlignment.alignHolistic(q, tables, ColumnEmbedders.dustDefault, tfidf)

  test("every kept cluster is anchored to a distinct query column") {
    val qcols = aligned.clusters.map(_.queryCol)
    assert(qcols.distinct.size == qcols.size)
    assert(qcols.forall(c => c >= 0 && c < q.nCols))
  }

  test("no cluster contains two columns of the same table (constraint)") {
    aligned.clusters.foreach { c =>
      val tablesIn = c.members.map(_.table)
      assert(tablesIn.distinct.size == tablesIn.size)
    }
  }

  test("alignment has good mean F1 with the default embedder") {
    // Per-query variance is large (as in the paper); assert on the mean
    // over several queries, which is what Table 1 reports.
    val f1s = bench.queries.take(5).map { qq =>
      val ts = bench.unionableFor(qq)
      val a = ColumnAlignment.alignHolistic(qq, ts, ColumnEmbedders.dustDefault, tfidf)
      ColumnAlignment.evaluate(a, qq, ts).f1
    }
    val mean = f1s.sum / f1s.size
    assert(mean > 0.5, s"mean F1 = $mean (${f1s.mkString(", ")})")
  }

  test("lookup maps query columns to at most one column per table") {
    aligned.lookup.foreach { case (_, byTable) =>
      assert(byTable.keys.toVector.distinct.size == byTable.size)
    }
  }

  test("holistic alignment recovers most same-baseCol members") {
    val hit = aligned.clusters.flatMap { c =>
      val bc = q.cols(c.queryCol).baseCol
      c.members.map { m =>
        val t = tables.find(_.name == m.table).get
        t.cols(m.colIdx).baseCol == bc
      }
    }
    assert(hit.nonEmpty && hit.count(identity).toDouble / hit.size > 0.6)
  }

  test("bipartite alignment emits one cluster per query column") {
    val bi = ColumnAlignment.alignBipartite(q, tables, ColumnEmbedders.dustDefault, tfidf)
    assert(bi.clusters.size == q.nCols)
  }

  test("bipartite matches each table's columns at most once") {
    val bi = ColumnAlignment.alignBipartite(q, tables, ColumnEmbedders.dustDefault, tfidf)
    val perTable = bi.clusters.flatMap(_.members).groupBy(_.table)
    perTable.foreach { case (_, ms) =>
      assert(ms.map(_.colIdx).distinct.size == ms.size)
    }
  }

  test("ground-truth pairs include unmatched query column markers") {
    // A query with a column whose baseCol no table shares.
    val gt = ColumnAlignment.groundTruthPairs(q, Vector.empty)
    assert(gt.forall(_._1.startsWith("alone:")))
    assert(gt.size == q.nCols)
  }

  test("evaluate yields perfect scores for the ground-truth clustering") {
    val perfect = ColumnAlignment.Aligned(q.name,
      q.cols.indices.toVector.map { qj =>
        val bc = q.cols(qj).baseCol
        ColumnAlignment.AlignedCluster(qj,
          tables.flatMap { t =>
            t.cols.indices.filter(t.cols(_).baseCol == bc)
              .map(j => ColumnAlignment.ColKey(t.name, j))
          }.toVector)
      })
    val prf = ColumnAlignment.evaluate(perfect, q, tables)
    assert(math.abs(prf.precision - 1.0) < 1e-9)
    assert(math.abs(prf.recall - 1.0) < 1e-9)
    assert(math.abs(prf.f1 - 1.0) < 1e-9)
  }

  test("evaluate punishes a degenerate single-cluster prediction") {
    val allCols = tables.flatMap(t => t.cols.indices.map(j => ColumnAlignment.ColKey(t.name, j)))
    val degenerate = ColumnAlignment.Aligned(q.name,
      Vector(ColumnAlignment.AlignedCluster(0, allCols.toVector)))
    val prf = ColumnAlignment.evaluate(degenerate, q, tables)
    assert(prf.precision < 0.6)
  }

  test("holistic alignment with good embeddings beats Starmie bipartite (paper's conclusion)") {
    val starmie = repro.embed.StarmieEmbedder()
    def avgF1(f: (repro.data.SimpleTable, Seq[repro.data.SimpleTable]) => ColumnAlignment.Aligned): Double = {
      val qs = bench.queries.take(4)
      val f1s = qs.map { qq =>
        val ts = bench.unionableFor(qq)
        ColumnAlignment.evaluate(f(qq, ts), qq, ts).f1
      }
      f1s.sum / f1s.size
    }
    val holistic = avgF1((qq, ts) =>
      ColumnAlignment.alignHolistic(qq, ts, ColumnEmbedders.dustDefault, tfidf))
    val starmieB = avgF1((qq, ts) =>
      ColumnAlignment.alignBipartite(qq, ts, starmie, tfidf))
    assert(holistic > starmieB, s"holistic $holistic vs Starmie(B) $starmieB")
  }

  test("alignment with zero tables keeps all query columns as singletons") {
    val a = ColumnAlignment.alignHolistic(q, Vector.empty, ColumnEmbedders.dustDefault, tfidf)
    assert(a.clusters.size == q.nCols)
    assert(a.clusters.forall(_.members.isEmpty))
  }
}
