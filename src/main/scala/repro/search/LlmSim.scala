package repro.search

import repro.data.SimpleTable
import repro.util.Rng

/** Simulated GPT-3 baseline (§6.5.1). No model API exists in this offline
  * environment, so we model the behaviour the paper measured: prompted with
  * the query table, "the LLM generates a few diverse tuples but
  * subsequently produces redundant ones", and it only works for small
  * inputs (token limit). Novel tuples draw unseen values from the query's
  * topic vocabulary; after [[NoveltyBudget]] generations, outputs are light
  * perturbations of earlier generations. See DESIGN.md §2.
  */
object LlmSim {

  /** Token-limit guard: mirrors the paper's exclusion of SANTOS queries. */
  val MaxPromptTuples = 40

  /** Novel generations before the output turns redundant. */
  val NoveltyBudget = 12

  /** Generate k tuples "unionable with" the query, each as (header, value)
    * pairs. Returns None when the query exceeds the prompt budget (the
    * paper's "-" cells).
    */
  def generate(query: SimpleTable, k: Int): Option[Vector[Vector[(String, String)]]] = {
    if (query.nRows > MaxPromptTuples) return None
    val rng = new Rng(Rng.mix(1234, Rng.hashString(query.name)))
    val seen = query.rows.flatMap(_.flatten).toSet
    val produced = scala.collection.mutable.ArrayBuffer.empty[Vector[(String, String)]]
    var i = 0
    while (i < k) {
      val g =
        if (i < NoveltyBudget || produced.isEmpty) {
          // Novel tuple: fresh values in the query's per-column vocabulary.
          query.cols.map { c =>
            val v =
              if (c.numeric) (1000 + rng.nextInt(9000)).toString
              else if (rng.nextDouble() < 0.5) {
                // In-topic novel value (same column vocabulary, unseen id).
                var cand = s"t${query.baseId}c${c.baseCol}v${100 + rng.nextInt(900)}"
                while (seen.contains(cand)) cand = cand + "x"
                cand
              } else {
                // Genuinely fresh content, distinct per generation — an LLM
                // is not limited to the lake's vocabulary and each of its
                // early generations differs from the others, which is why
                // they win diversity in the paper's UGEN experiment.
                s"g${i}c${c.baseCol}w${rng.nextInt(1000)}"
              }
            (c.header, v)
          }.toVector
        } else {
          // Redundant phase: regurgitate an earlier generation, perturbing
          // at most one numeric field.
          produced(rng.nextInt(produced.length)).map { case (h, v) =>
            if (v.forall(_.isDigit) && rng.nextDouble() < 0.5)
              (h, (v.toInt + rng.nextInt(3)).toString)
            else (h, v)
          }
        }
      produced += g
      i += 1
    }
    Some(produced.toVector)
  }
}
