package repro.embed

import repro.SparkSpec
import repro.data.Generators
import repro.exp.Table1Experiment
import repro.util.VecOps

class ColumnEmbeddersSpec extends SparkSpec {
  private lazy val bench = Generators.ugenLite
  private lazy val tfidf = TfIdf.fit(bench.lake ++ bench.queries)
  private lazy val table = bench.lake.head

  test("cell-level produces one embedding per column") {
    val e = CellLevelEmbedder(HashLm.bert).embedAll(table, tfidf)
    assert(e.size == table.nCols)
  }

  test("column-level produces one embedding per column") {
    val e = ColumnLevelEmbedder(HashLm.roberta).embedAll(table, tfidf)
    assert(e.size == table.nCols)
  }

  test("same base column embeds closer than different base columns (column-level)") {
    val emb = ColumnLevelEmbedder(HashLm.roberta)
    val sameBase = bench.lake.filter(_.baseId == table.baseId)(1)
    val e1 = emb.embedAll(table, tfidf)
    val e2 = emb.embedAll(sameBase, tfidf)
    // match a non-numeric column by baseCol
    val j1 = table.cols.indexWhere(c => !c.numeric)
    val bc = table.cols(j1).baseCol
    val j2 = sameBase.cols.indexWhere(_.baseCol == bc)
    assume(j2 >= 0)
    val otherBase = bench.lake.find(_.baseId != table.baseId).get
    val e3 = emb.embedAll(otherBase, tfidf)
    val jo = otherBase.cols.indexWhere(c => !c.numeric)
    assert(VecOps.euclidean(e1(j1), e2(j2)) < VecOps.euclidean(e1(j1), e3(jo)))
  }

  test("starmie embeddings pull same-table columns together") {
    val plain = ColumnLevelEmbedder(HashLm.starmieBase).embedAll(table, tfidf)
    val star = StarmieEmbedder().embedAll(table, tfidf)
    def meanIntraSim(es: Vector[Array[Double]]): Double = {
      val ps = for { i <- es.indices; j <- es.indices if i < j } yield VecOps.cosineSim(es(i), es(j))
      ps.sum / ps.size
    }
    assert(meanIntraSim(star) > meanIntraSim(plain))
  }

  test("starmie embeddings are unit-norm") {
    StarmieEmbedder().embedAll(table, tfidf).foreach { e =>
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
    val e1 = ColumnLevelEmbedder(HashLm.roberta).embedAll(table, tfidf)
    val e2 = ColumnLevelEmbedder(HashLm.roberta).embedAll(table, tfidf)
    e1.zip(e2).foreach { case (a, b) => assert(a.toSeq == b.toSeq) }
  }
}
