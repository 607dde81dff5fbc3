package repro.data

import org.scalatest.funsuite.AnyFunSuite

class FineTuneDataSpec extends AnyFunSuite {
  private lazy val split = FineTuneData.build(Generators.tusLite, nPairs = 1000, labelNoise = 0.0, seed = 1)

  test("split sizes follow 70/15/15") {
    assert(split.train.size == 700)
    assert(split.validation.size == 150)
    assert(split.test.size == 150)
  }

  test("dataset is balanced overall") {
    val pos = split.all.count(_.label == 1)
    assert(math.abs(pos - 500) == 0)
  }

  test("all labels are 0 or 1") {
    assert(split.all.forall(p => p.label == 0 || p.label == 1))
  }

  test("pairs carry non-empty tuples") {
    assert(split.all.forall(p => p.t1.nonEmpty && p.t2.nonEmpty))
  }

  test("noise-free positives share a base vocabulary prefix") {
    // A positive pair's string values come from the same base (t<B>...).
    def baseOf(t: Vector[(String, String)]): Option[String] =
      t.iterator.map(_._2).flatMap(Tokenizer.tokens)
        .find(tok => tok.startsWith("t") && tok.contains("v"))
        .map(_.takeWhile(_ != 'c'))
    val positives = split.all.filter(_.label == 1)
    val checkable = positives.flatMap { p =>
      for (b1 <- baseOf(p.t1); b2 <- baseOf(p.t2)) yield b1 == b2
    }
    assert(checkable.nonEmpty && checkable.forall(identity))
  }

  test("noise-free negatives are cross-base") {
    def baseOf(t: Vector[(String, String)]): Option[String] =
      t.iterator.map(_._2).flatMap(Tokenizer.tokens)
        .find(tok => tok.startsWith("t") && tok.contains("v"))
        .map(_.takeWhile(_ != 'c'))
    val negatives = split.all.filter(_.label == 0)
    val checkable = negatives.flatMap { p =>
      for (b1 <- baseOf(p.t1); b2 <- baseOf(p.t2)) yield b1 != b2
    }
    assert(checkable.nonEmpty && checkable.count(identity) == checkable.size)
  }

  test("label noise flips roughly the configured fraction") {
    val noisy = FineTuneData.build(Generators.tusLite, nPairs = 2000, labelNoise = 0.5, seed = 2)
    val clean = FineTuneData.build(Generators.tusLite, nPairs = 2000, labelNoise = 0.0, seed = 2)
    val flips = noisy.all.zip(clean.all).count { case (a, b) => a.label != b.label }
    assert(flips > 800 && flips < 1200)
  }

  test("build is deterministic in the seed") {
    val a = FineTuneData.build(Generators.tusLite, nPairs = 200, seed = 3)
    val b = FineTuneData.build(Generators.tusLite, nPairs = 200, seed = 3)
    assert(a.train == b.train && a.test == b.test)
  }

  test("odd pair counts rejected") {
    intercept[IllegalArgumentException](FineTuneData.build(Generators.tusLite, nPairs = 3))
  }

  test("train/test/validation are disjoint partitions of all pairs") {
    assert(split.train.size + split.validation.size + split.test.size == 1000)
  }
}
