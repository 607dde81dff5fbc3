package repro.embed

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Generators

class TfIdfSpec extends AnyFunSuite {
  private lazy val tfidf = TfIdf.fit(Generators.ugenLite.lake)

  test("common tokens get lower idf than rare ones") {
    // com* tokens appear across all bases; column vocab tokens are rare.
    val lake = Generators.ugenLite.lake
    val someCommon = lake.flatMap(_.rows.flatten.flatten)
      .flatMap(repro.data.Tokenizer.tokens).find(_.startsWith("com")).get
    val someRare = lake.head.columnValues(0).flatMap(repro.data.Tokenizer.tokens)
      .find(_.startsWith("t")).get
    assert(tfidf.idfOf(someCommon) < tfidf.idfOf(someRare))
  }

  test("unseen tokens get maximal idf") {
    assert(tfidf.idfOf("never-seen-token-xyz") >= tfidf.idfOf("com1"))
  }

  test("topTokens respects the limit") {
    val values = (0 until 2000).map(i => s"tok$i")
    assert(tfidf.topTokens(values).size == 512)
  }

  test("topTokens of empty column is empty") {
    assert(tfidf.topTokens(Nil).isEmpty)
  }

  test("topTokens weights are descending") {
    val top = tfidf.topTokens(Generators.ugenLite.lake.head.columnValues(0))
    val ws = top.map(_._2)
    assert(ws == ws.sortBy(-_))
  }

  test("topTokens is deterministic (lexicographic tie-break)") {
    val vals = Seq("a b c", "a b c")
    assert(tfidf.topTokens(vals) == tfidf.topTokens(vals))
  }

  test("fit counts each column as one document") {
    val t = Generators.ugenLite.lake.take(2)
    val f = TfIdf.fit(t)
    // a token present in every column has the minimum idf log(1 + n/n)
    assert(f.idfOf("definitely-not-there") > math.log(2.0) - 1e-9)
  }

  test("token limit constant matches the paper") {
    assert(TfIdf.TokenLimit == 512)
  }
}
