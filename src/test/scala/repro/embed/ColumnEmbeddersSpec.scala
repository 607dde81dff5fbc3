package repro.embed

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Generators
import repro.exp.Table1Experiment
import repro.util.VecOps

class ColumnEmbeddersSpec extends AnyFunSuite {
  private lazy val bench = Generators.ugenLite
  private lazy val tfidf = TfIdf.fit(bench.lake ++ bench.queries)
  private lazy val table = bench.lake.head

  test("cell-level produces one embedding per column") {
    val e = CellLevelEmbedder(HashLm.bert).embedAll(Vector(table), tfidf).head
    assert(e.size == table.nCols)
  }

  test("column-level produces one embedding per column") {
    val e = ColumnLevelEmbedder(HashLm.roberta).embedAll(Vector(table), tfidf).head
    assert(e.size == table.nCols)
  }

  test("same base column embeds closer than different base columns (column-level)") {
    val emb = ColumnLevelEmbedder(HashLm.roberta)
    val sameBase = bench.lake.filter(_.baseId == table.baseId)(1)
    val e1 = emb.embedAll(Vector(table), tfidf).head
    val e2 = emb.embedAll(Vector(sameBase), tfidf).head
    // match a non-numeric column by baseCol
    val j1 = table.cols.indexWhere(c => !c.numeric)
    val bc = table.cols(j1).baseCol
    val j2 = sameBase.cols.indexWhere(_.baseCol == bc)
    assume(j2 >= 0)
    val otherBase = bench.lake.find(_.baseId != table.baseId).get
    val e3 = emb.embedAll(Vector(otherBase), tfidf).head
    val jo = otherBase.cols.indexWhere(c => !c.numeric)
    assert(VecOps.euclidean(e1(j1), e2(j2)) < VecOps.euclidean(e1(j1), e3(jo)))
  }

  test("starmie embeddings pull same-table columns together") {
    val plain = ColumnLevelEmbedder(HashLm.starmieBase).embedAll(Vector(table), tfidf).head
    val star = StarmieEmbedder().embedAll(Vector(table), tfidf).head
    def meanIntraSim(es: Vector[Array[Double]]): Double = {
      val ps = for { i <- es.indices; j <- es.indices if i < j } yield VecOps.cosineSim(es(i), es(j))
      ps.sum / ps.size
    }
    assert(meanIntraSim(star) > meanIntraSim(plain))
  }

  test("starmie embeddings are unit-norm") {
    StarmieEmbedder().embedAll(Vector(table), tfidf).head.foreach { e =>
      assert(math.abs(VecOps.norm(e) - 1.0) < 1e-9)
    }
  }

  test("embedder names are descriptive") {
    assert(CellLevelEmbedder(HashLm.bert).name == "Cell-level BERT")
    assert(ColumnLevelEmbedder(HashLm.sbert).name == "Column-level sBERT")
    assert(StarmieEmbedder().name == "Starmie")
  }

  test("table1 registry holds nine embedders (Starmie reused for B and H)") {
    assert(Table1Experiment.methods.map(_.embedder).distinct.size == 9)
  }

  test("dust default is column-level RoBERTa (§6.2.4)") {
    assert(ColumnEmbedders.dustDefault.name == "Column-level RoBERTa")
  }

  test("embeddings are deterministic") {
    val e1 = ColumnLevelEmbedder(HashLm.roberta).embedAll(Vector(table), tfidf).head
    val e2 = ColumnLevelEmbedder(HashLm.roberta).embedAll(Vector(table), tfidf).head
    e1.zip(e2).foreach { case (a, b) => assert(a.toSeq == b.toSeq) }
  }
}
