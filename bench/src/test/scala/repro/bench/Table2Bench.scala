package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Generators
import repro.exp.{Benchmarks, Table2Experiment}

/** Table 2 — tuple diversification effectiveness and efficiency. */
class Table2Bench extends AnyFunSuite {

  test("Table 2: diversification wins and per-query time") {
    val santos = Table2Experiment.run(Generators.santosLite, Benchmarks.santosK, includeGne = false)
    val ugen = Table2Experiment.run(Generators.ugenLite, Benchmarks.ugenK, includeGne = true)
    println("\n=== Table 2: Diversification algorithms (lite benchmarks) ===")
    println(Table2Experiment.render(santos, ugen))
    println("""Paper: SANTOS - GMC #Avg 23 #Min 1 556s; GNE -; CLT 0/0 82s; DUST 27/49 85s.
              |UGEN - GMC 3/2 <1s; GNE 0/0 81s; CLT 18/12 <1s; DUST 27/34 <1s.""".stripMargin)

    def res(r: Table2Experiment.BenchResult, m: String) = r.results.find(_.method == m).get

    // DUST dominates Min Diversity in both benchmarks (its re-ranking step).
    Seq(santos, ugen).foreach { r =>
      val dust = res(r, "DUST")
      r.results.filter(x => x.included && x.method != "DUST").foreach { other =>
        assert(dust.minWins >= other.minWins, s"${r.benchmark}: DUST min vs ${other.method}")
      }
    }
    // DUST wins Average at least as often as CLT (clustering alone) on SANTOS,
    // and is the best or second-best method there.
    assert(res(santos, "DUST").avgWins >= res(santos, "CLT").avgWins)
    // Efficiency: DUST is much faster than GMC on the larger benchmark and
    // in the same league as CLT.
    val dustT = res(santos, "DUST").avgTimeMs.get
    val gmcT = res(santos, "GMC").avgTimeMs.get
    val cltT = res(santos, "CLT").avgTimeMs.get
    assert(dustT < gmcT, s"DUST $dustT ms vs GMC $gmcT ms")
    assert(dustT < cltT * 3 + 50, s"DUST $dustT ms vs CLT $cltT ms")
    // GNE is the slowest method on UGEN (paper's observation).
    val gneT = res(ugen, "GNE").avgTimeMs.get
    ugen.results.filter(r => r.included && r.method != "GNE").foreach { other =>
      assert(gneT >= other.avgTimeMs.get, s"GNE $gneT vs ${other.method} ${other.avgTimeMs.get}")
    }
    // Random sanity check: DUST beats best-of-5 random on most queries.
    assert(santos.dustBeatsRandomMin >= santos.nQueries - 2)
    assert(ugen.dustBeatsRandomMin >= ugen.nQueries - 3)
  }
}
