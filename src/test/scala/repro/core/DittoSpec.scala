package repro.core

import repro.SparkSpec
import repro.data.Generators
import repro.exp.{Benchmarks, Models}

class DittoSpec extends SparkSpec {

  test("EM pairs are balanced and labeled") {
    val ps = Ditto.emPairs(Generators.ugenLite, 200, seed = 1)
    assert(ps.size == 200)
    assert(ps.count(_.label == 1) == 100)
  }

  test("positive EM pairs describe the same entity (subset of attributes)") {
    val ps = Ditto.emPairs(Generators.ugenLite, 100, seed = 2).filter(_.label == 1)
    ps.foreach { p =>
      val (big, small) = if (p.t1.size >= p.t2.size) (p.t1, p.t2) else (p.t2, p.t1)
      assert(small.toSet.subsetOf(big.toSet))
    }
  }

  test("EM pairs generation rejects odd sizes") {
    intercept[IllegalArgumentException](Ditto.emPairs(Generators.ugenLite, 33))
  }

  test("Ditto lands between raw baselines and DUST on unionability (Fig 6 shape)") {
    val test = Benchmarks.fineTune.test
    val ditto = DustModel.accuracy(Models.ditto.embedAll, test)
    val raw = DustModel.accuracy(Models.robertaBase.featuresAll, test)
    val dust = DustModel.accuracy(Models.dustRoberta.embedAll, test)
    assert(ditto > raw, s"ditto=$ditto raw=$raw")
    assert(dust > ditto, s"dust=$dust ditto=$ditto")
  }
}
