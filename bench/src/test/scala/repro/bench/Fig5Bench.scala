package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Fig5Stats

/** Fig 5 — benchmark statistics (lite-scale analogue of the paper's table). */
class Fig5Bench extends AnyFunSuite {

  test("Fig 5: benchmark statistics table") {
    val rows = Fig5Stats.all()
    println("\n=== Fig 5: Benchmarks used in the experiments (lite) ===")
    println(Fig5Stats.render(rows))
    println("""Paper (full-scale): TUS 125q/5044dl avg188; TUS-Sampled 30q/233dl avg10;
              |SANTOS 50q/550dl avg14; UGEN-V1 50q/1000dl avg10.""".stripMargin)

    // Shape assertions: every benchmark is populated and TUS has the most
    // unionable tables per query, as in the paper.
    rows.foreach { r =>
      assert(r.qTables > 0 && r.dTables > 0 && r.qTuples > 0 && r.dTuples > 0)
      assert(r.avgUnionable > 0)
    }
    val byName = rows.map(r => r.benchmark -> r).toMap
    assert(byName("TUS-lite").avgUnionable >= byName("UGEN-V1-lite").avgUnionable)
    assert(byName("TUS-lite").dTables > byName("TUS-Sampled-lite").dTables)
  }
}
