package repro.bench

import java.lang.Double.doubleToRawLongBits
import scala.util.hashing.MurmurHash3
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{Generators, Tokenizer}
import repro.embed.{ColumnEmbedders, TfIdf}

/** Kernel harness for the token path of a cold lake (Starmie-style search
  * embeds every lake column): `TfIdf.fit` over SANTOS-lite's lake and
  * queries, and the column embeddings of its lake with
  * `ColumnEmbedders.dustDefault`, computed afresh (`embedAll`, no index),
  * timed by [[KernelTiming.time]]. The fit's checksum is of `idfOf`'s bits
  * over the lake's sorted token set; the embeddings' is of every entry's
  * bits, in order.
  */
class TokenKernelBench extends AnyFunSuite {

  private def hex(h: Int) = f"$h%08x"

  private def bitsHash(h0: Int, xs: Iterator[Double]): Int = {
    var h = h0; var n = 0
    xs.foreach { x => h = MurmurHash3.mix(h, java.lang.Long.hashCode(doubleToRawLongBits(x))); n += 1 }
    MurmurHash3.finalizeHash(h, n)
  }

  test("token kernels on SANTOS-lite's lake, 1 warm-up and 5 timed runs") {
    val b = Generators.santosLite
    val tokens = b.lake.flatMap(t => t.cols.indices.flatMap(j => Tokenizer.columnTokens(t.columnValues(j))))
      .distinct.sorted
    println(s"\n=== Token kernels: SANTOS-lite lake (${b.lake.size} tables, ${tokens.size} distinct tokens) ===")
    KernelTiming.time("santos_lite_lake", "tfidf_fit_ms", "ms")(TfIdf.fit(b.lake ++ b.queries)) { f =>
      hex(bitsHash(tokens.size, tokens.iterator.map(f.idfOf)))
    }
    val tfidf = TfIdf.fit(b.lake ++ b.queries)
    KernelTiming.time("santos_lite_lake", "column_embeddings_ms", "ms")(
      ColumnEmbedders.dustDefault.embedAll(b.lake, tfidf)) { embs =>
      hex(bitsHash(embs.size, embs.iterator.flatten.flatMap(_.iterator)))
    }
  }
}
