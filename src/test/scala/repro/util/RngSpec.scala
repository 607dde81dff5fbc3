package repro.util

import repro.SparkSpec

class RngSpec extends SparkSpec {

  test("nextLong is deterministic for equal seeds") {
    val a = new Rng(7); val b = new Rng(7)
    assert((1 to 100).map(_ => a.nextLong()) == (1 to 100).map(_ => b.nextLong()))
  }

  test("different seeds give different streams") {
    val a = new Rng(1); val b = new Rng(2)
    assert((1 to 10).map(_ => a.nextLong()) != (1 to 10).map(_ => b.nextLong()))
  }

  test("nextDouble lies in [0,1)") {
    val r = new Rng(3)
    (1 to 10000).foreach { _ =>
      val d = r.nextDouble()
      assert(d >= 0.0 && d < 1.0)
    }
  }

  test("nextDouble mean is near 0.5") {
    val r = new Rng(4)
    val mean = (1 to 20000).map(_ => r.nextDouble()).sum / 20000
    assert(math.abs(mean - 0.5) < 0.02)
  }

  test("nextInt respects the bound") {
    val r = new Rng(5)
    (1 to 5000).foreach(_ => assert((0 until 7).contains(r.nextInt(7))))
  }

  test("nextInt covers all residues") {
    val r = new Rng(6)
    val seen = (1 to 1000).map(_ => r.nextInt(5)).toSet
    assert(seen == Set(0, 1, 2, 3, 4))
  }

  test("nextInt rejects non-positive bounds") {
    intercept[IllegalArgumentException](new Rng(1).nextInt(0))
  }

  test("nextGaussian has roughly unit variance") {
    val r = new Rng(8)
    val xs = (1 to 20000).map(_ => r.nextGaussian())
    val mean = xs.sum / xs.size
    val varr = xs.map(x => (x - mean) * (x - mean)).sum / xs.size
    assert(math.abs(mean) < 0.05)
    assert(math.abs(varr - 1.0) < 0.08)
  }

  test("shuffle is a permutation") {
    val r = new Rng(9)
    val xs = (1 to 50).toVector
    assert(r.shuffle(xs).sorted == xs)
  }

  test("shuffle of empty and singleton") {
    val r = new Rng(10)
    assert(r.shuffle(Vector.empty[Int]) == Vector.empty)
    assert(r.shuffle(Vector(42)) == Vector(42))
  }

  test("hashString is stable and spreads") {
    assert(Rng.hashString("abc") == Rng.hashString("abc"))
    assert(Rng.hashString("abc") != Rng.hashString("abd"))
    assert(Rng.hashString("") != Rng.hashString("a"))
  }

  test("mix is order-sensitive") {
    assert(Rng.mix(1, 2) != Rng.mix(2, 1))
  }

  test("pick selects members only") {
    val r = new Rng(13)
    val xs = Vector("a", "b", "c")
    (1 to 100).foreach(_ => assert(xs.contains(r.pick(xs))))
  }
}
