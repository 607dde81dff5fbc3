package repro.embed

import java.lang.Double.doubleToRawLongBits
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{ColumnSpec, Generators, SimpleTable, Tokenizer}
import repro.util.Rng

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

  test("topTokens orders equal weights lexicographically, after higher weights") {
    // Unseen tokens share the max IDF, so equal counts give equal weights.
    val top = tfidf.topTokens(Seq("zq3 zq1 zq20", "zq2 zq1"))
    assert(top.map(_._1) == Vector("zq1", "zq2", "zq20", "zq3"))
    assert(top(0)._2 > top(1)._2)
    assert(top.drop(1).map(_._2).distinct.size == 1)
  }

  test("topTokens equals the groupBy/sortBy definition bit for bit on tie-heavy columns") {
    // The definition topTokens had before it counted in a HashMap and sorted an array.
    def reference(f: TfIdf, values: Seq[String]): Vector[(String, Double)] = {
      val toks = Tokenizer.columnTokens(values)
      if (toks.isEmpty) Vector.empty
      else toks.groupBy(identity).view.mapValues(_.size.toDouble / toks.size).toMap
        .map { case (t, tf) => (t, tf * f.idfOf(t)) }
        .toVector
        .sortBy { case (t, w) => (-w, t) }
        .take(TfIdf.TokenLimit)
    }
    val rng = new Rng(91)
    // Small vocabularies and few documents: many tokens share a count and an
    // IDF, so equal weights are common, also at the 512-token cut.
    def column(vocab: Int, n: Int) =
      Vector.fill(n)(Vector.fill(1 + rng.nextInt(3))(s"w${rng.nextInt(vocab)}").mkString(" "))
    val lake = (0 until 6).map { i =>
      val values = column(900, 300)
      SimpleTable.dense(s"t$i", i, Vector(ColumnSpec("c", 0, numeric = false)), values.map(Vector(_)))
    }
    val fitted = TfIdf.fit(lake)
    val columns = Seq(Seq.empty[String], Seq("", " ,; "), Seq("a b c", "a b c")) ++
      (0 until 40).map(i => column(if (i % 2 == 0) 40 else 2000, 1 + rng.nextInt(900)))
    columns.foreach { values =>
      val got = fitted.topTokens(values)
      val want = reference(fitted, values)
      assert(got.map(_._1) == want.map(_._1))
      assert(got.map(p => doubleToRawLongBits(p._2)) == want.map(p => doubleToRawLongBits(p._2)))
    }
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
