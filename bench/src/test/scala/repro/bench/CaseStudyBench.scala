package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.CaseStudyExperiment

/** Fig 8 / §6.6 — IMDB case study: novel values added to the query table,
  * reported as a table of the figure's numbers.
  */
class CaseStudyBench extends AnyFunSuite {

  test("Fig 8: novel values added per column (IMDB-lite)") {
    val rows = CaseStudyExperiment.run()
    val ks = rows.map(_.k).distinct
    println("\n=== Fig 8: novel values added to the query table (IMDB-lite) ===")
    println(CaseStudyExperiment.render(rows))
    println("Paper shape: DUST adds ~25% more unique titles than Starmie-D; " +
      "D3L and Starmie add similar counts (unionable-only lake).")

    def novel(m: String, k: Int, c: String): Int =
      rows.find(r => r.method == m && r.k == k && r.column == c).get.novelValues

    ks.foreach { k =>
      // DUST retrieves at least as many novel titles as every baseline.
      Seq("D3L", "D3L-D", "Starmie", "Starmie-D").foreach { m =>
        assert(novel("DUST", k, "title") >= novel(m, k, "title"),
          s"k=$k: DUST vs $m on title")
      }
      // Dedup variants never add fewer novel values than their raw variants.
      assert(novel("Starmie-D", k, "title") >= novel("Starmie", k, "title"))
      assert(novel("D3L-D", k, "title") >= novel("D3L", k, "title"))
    }
    // DUST's advantage is substantial at the largest k (paper: ~25%).
    val dust = novel("DUST", ks.max, "title"); val st = novel("Starmie", ks.max, "title")
    assert(dust >= st, s"DUST $dust vs Starmie $st")
  }
}
