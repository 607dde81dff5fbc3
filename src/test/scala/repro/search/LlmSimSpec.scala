package repro.search

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Generators

class LlmSimSpec extends AnyFunSuite {
  private lazy val q = Generators.ugenLite.queries.head

  test("generates k tuples for small queries") {
    val out = LlmSim.generate(q, 12)
    assert(out.isDefined && out.get.size == 12)
  }

  test("refuses over-budget query tables (token limit)") {
    val big = Generators.santosLite.queries.find(_.nRows > LlmSim.MaxPromptTuples)
    assume(big.isDefined)
    assert(LlmSim.generate(big.get, 5).isEmpty)
  }

  test("generated tuples have the query's headers") {
    val out = LlmSim.generate(q, 5).get
    out.foreach(g => assert(g.map(_._1) == q.cols.map(_.header)))
  }

  test("early tuples are novel w.r.t. the query values") {
    val out = LlmSim.generate(q, 6).get
    val seen = q.rows.flatMap(_.flatten).toSet
    out.take(6).foreach { g =>
      g.foreach { case (_, v) => assert(!seen.contains(v)) }
    }
  }

  test("late tuples become redundant (the paper's observation)") {
    val out = LlmSim.generate(q, 30).get
    val distinct = out.distinct.size
    assert(distinct < 30, s"all $distinct generations distinct — no redundancy")
  }

  test("generation is deterministic per query") {
    assert(LlmSim.generate(q, 8) == LlmSim.generate(q, 8))
  }
}
