package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.ScalingExperiment

/** Fig 7 (runtime vs s and k) and Appendices A.2.2 (choice of p) and
  * A.2.3 (effect of pruning), reported as tables (figures are out of scope).
  */
class ScalingBench extends AnyFunSuite {

  test("Fig 7(a): runtime vs number of candidate tuples s") {
    val rows = ScalingExperiment.varyS(Seq(400, 800, 1600, 3200), k = 50)
    println("\n=== Fig 7(a): diversification runtime vs s (k=50) ===")
    println(ScalingExperiment.renderTimings(rows))
    println("Paper shape: GMC grows fastest with s; DUST near-linear with a small slope; CLT similar to DUST.")

    def t(m: String, s: Int) = rows.find(r => r.method == m && r.s == s).get.millis
    // DUST is faster than GMC at the largest s (paper: >6x on SANTOS).
    assert(t("DUST", 3200) < t("GMC", 3200), s"DUST ${t("DUST", 3200)} vs GMC ${t("GMC", 3200)}")
    // GMC's growth from 400 to 3200 outpaces DUST's.
    assert(t("GMC", 3200) / t("GMC", 400) > t("DUST", 3200) / t("DUST", 400) * 0.5)
  }

  test("Fig 7(b): runtime vs output size k") {
    val rows = ScalingExperiment.varyK(Seq(25, 50, 100, 200), s = 1200)
    println("\n=== Fig 7(b): diversification runtime vs k (s=1200) ===")
    println(ScalingExperiment.renderTimings(rows))
    println("Paper shape: DUST barely affected by k; GMC grows with k.")

    def t(m: String, k: Int) = rows.find(r => r.method == m && r.k == k).get.millis
    // DUST's k-sensitivity is far below GMC's.
    val dustGrowth = t("DUST", 200) / math.max(1e-3, t("DUST", 25))
    val gmcGrowth = t("GMC", 200) / math.max(1e-3, t("GMC", 25))
    assert(dustGrowth < gmcGrowth, s"DUST growth $dustGrowth vs GMC $gmcGrowth")
  }

  test("A.2.3: pruning cuts DUST's runtime without changing its role") {
    val rows = ScalingExperiment.pruningEffect(nTuples = 6000, s = 1500, k = 50)
    println("\n=== A.2.3: effect of pruning (input 6000 tuples, s=1500, k=50) ===")
    println(ScalingExperiment.renderPruning(rows))
    println("Paper: 990 s/query without pruning vs 85 s with, at 10k -> 2500.")
    val withP = rows.find(_.variant == "with pruning").get
    val withoutP = rows.find(_.variant == "without pruning").get
    assert(withP.millis < withoutP.millis, "pruning must reduce runtime")
    assert(withP.clusteredSize == 1500 && withoutP.clusteredSize == 6000)
  }

  test("A.2.2: diversity gains plateau after p = 2") {
    val rows = ScalingExperiment.pImpact(Seq(1, 2, 3, 4))
    println("\n=== A.2.2: impact of the candidate multiplier p (k=30) ===")
    println(ScalingExperiment.renderPImpact(rows))
    println("Paper: improvements beyond p=2 are negative (min) or insignificant (avg).")
    val byP = rows.map(r => r.p -> r).toMap
    // p=2 improves on p=1 in at least one metric; p=4 does not beat p=2's
    // min diversity (more candidates shrink the pairwise minimum).
    assert(byP(2).avgDiv >= byP(1).avgDiv - 1e-9 || byP(2).minDiv >= byP(1).minDiv - 1e-9)
    assert(byP(4).minDiv <= byP(2).minDiv + 1e-6)
  }
}
