package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.{Benchmarks, Table1Experiment}

/** Table 1 — column alignment effectiveness (P/R/F1, ten configurations ×
  * three benchmarks) plus the §6.2.5 per-query alignment times.
  */
class Table1Bench extends AnyFunSuite {

  test("Table 1: column alignment effectiveness") {
    val benches = Seq(Benchmarks.tusSampled, Benchmarks.santos, Benchmarks.ugen)
    val rows = Table1Experiment.run(benches)
    println("\n=== Table 1: Column Alignment effectiveness (lite benchmarks) ===")
    println(Table1Experiment.render(rows))
    println("""Paper F1 for reference - TUS-Sampled: FastText .66, Glove .63, cBERT .59,
              |cRoBERTa .69, csBERT .70, CBERT .64, CRoBERTa .74, CsBERT .68,
              |Starmie(B) .41, Starmie(H) .55; SANTOS: .70 .71 .60 .66 .69 .66 .76 .76 .32 .18;
              |UGEN: .43 .43 .44 .53 .52 .47 .58 .58 .24 .57.""".stripMargin)

    def f1(model: String, group: String, bench: String): Double =
      rows.find(r => r.model == model && r.serialization == group && r.benchmark == bench).get.f1

    benches.map(_.name).foreach { b =>
      // Column-level RoBERTa is the production choice: it must beat every
      // cell-level LM variant and both Starmie variants (paper's conclusion).
      val target = f1("RoBERTa", "Column-level", b)
      Seq("BERT", "RoBERTa", "sBERT").foreach { m =>
        assert(target >= f1(m, "Cell-level", b) - 0.05, s"$b: col-RoBERTa vs cell-$m")
      }
      assert(target > f1("Starmie (B)", "Table context", b), s"$b: col-RoBERTa vs Starmie(B)")
      assert(target > f1("Starmie (H)", "Table context", b), s"$b: col-RoBERTa vs Starmie(H)")
      // Column-level beats cell-level for the same LM (BERT and RoBERTa).
      assert(f1("BERT", "Column-level", b) >= f1("BERT", "Cell-level", b) - 0.02, s"$b: BERT levels")
      assert(f1("RoBERTa", "Column-level", b) >= f1("RoBERTa", "Cell-level", b) - 0.02, s"$b: RoBERTa levels")
    }
  }
}
