package repro.data

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec

class TokenizerSpec extends SparkSpec {

  test("splits on whitespace and punctuation") {
    assert(Tokenizer.tokens("River Park, Fresno!") == Vector("river", "park", "fresno"))
  }

  test("lowercases") {
    assert(Tokenizer.tokens("USA") == Vector("usa"))
  }

  test("keeps digit runs as tokens") {
    assert(Tokenizer.tokens("call 773 731") == Vector("call", "773", "731"))
  }

  test("empty string yields no tokens") {
    assert(Tokenizer.tokens("") == Vector.empty)
    assert(Tokenizer.tokens("  ,;- ") == Vector.empty)
  }

  test("columnTokens concatenates all values") {
    assert(Tokenizer.columnTokens(Seq("a b", "c")) == Vector("a", "b", "c"))
  }

  test("contextKey strips trailing digits") {
    assert(Tokenizer.contextKey("t3c2v17") == "t3c2v")
    assert(Tokenizer.contextKey("com9") == "com")
  }

  test("contextKey of pure number is empty") {
    assert(Tokenizer.contextKey("483") == "")
  }

  test("contextKey leaves non-digit-suffixed tokens alone") {
    assert(Tokenizer.contextKey("park") == "park")
  }

  test("same column vocabulary shares a context key") {
    val keys = (0 until 20).map(i => Tokenizer.contextKey(s"t5c1v$i")).toSet
    assert(keys == Set("t5c1v"))
  }

  test("different columns get different context keys") {
    assert(Tokenizer.contextKey("t5c1v3") != Tokenizer.contextKey("t5c2v3"))
  }

  test("property: precompiled patterns give what String.split and replaceAll give") {
    def splitTokens(text: String) = text.toLowerCase.split("[^\\p{Alnum}]+").iterator.filter(_.nonEmpty).toVector
    def replaceKey(token: String) = token.replaceAll("\\d+$", "")
    val char = Gen.frequency(
      4 -> Gen.alphaNumChar,
      2 -> Gen.oneOf(" ,.;:-_/!#\n\t".toSeq),
      1 -> Gen.oneOf("éßÄİıΩ中日٣１²".toSeq))
    val text = Gen.chooseNum(0, 14).flatMap(n => Gen.listOfN(n, char).map(_.mkString))
    val punct = Gen.listOf(Gen.oneOf(" ,.;:-_/!#".toSeq)).map(_.mkString)
    val sampled = Seq(text, Gen.numStr, punct).flatMap { g =>
      (0 until 200).flatMap(i => g.apply(Gen.Parameters.default, Seed(77L + i)))
    }
    val edge = Vector("", "0", "483", "0070", "!!!", "  ,;- ", "\n", "t3c2v17", "com9\n", "abc12\n",
                      "Ab12Cd34", "çà", "日本語", "٣٤", "x١٢", "ß9")
    (edge ++ sampled).foreach { s =>
      assert(Tokenizer.tokens(s) == splitTokens(s), s"tokens of ${s.map(_.toInt)}")
      assert(Tokenizer.contextKey(s) == replaceKey(s), s"contextKey of ${s.map(_.toInt)}")
    }
  }
}
