package repro.data

/** Core table model for the synthetic data lake.
  *
  * Tables are small (lite-scale benchmarks), so they are held as plain
  * row-major string matrices.
  */

/** A column of a lake/query table.
  *
  * @param header   header shown to the matcher (may be a renamed variant)
  * @param baseCol  id of the base-table column this was projected from —
  *                 ground truth for column alignment (same baseCol ⇒ aligned)
  * @param numeric  whether values are plain numbers (these embed poorly in
  *                 text models, as in the paper's SANTOS discussion)
  */
final case class ColumnSpec(header: String, baseCol: Int, numeric: Boolean)

/** A materialized table.
  *
  * @param name   unique table name within its benchmark
  * @param baseId id of the base table it was derived from; two tables are
  *               unionable iff they share baseId (TUS/SANTOS ground truth)
  * @param cols   column specs, parallel to each row's values
  * @param rows   row-major values; `None` encodes an outer-union null pad
  * @param baseRowIds provenance: for each row, the row index in the base
  *               table (drives tuple-level redundancy ground truth)
  */
final case class SimpleTable(
    name: String,
    baseId: Int,
    cols: Vector[ColumnSpec],
    rows: Vector[Vector[Option[String]]],
    baseRowIds: Vector[Int],
) {
  require(rows.forall(_.length == cols.length), s"ragged table $name")
  require(baseRowIds.length == rows.length, s"provenance arity mismatch in $name")

  def headers: Vector[String] = cols.map(_.header)
  def nCols: Int = cols.length
  def nRows: Int = rows.length

  /** All non-null values of column j. */
  def columnValues(j: Int): Vector[String] = rows.flatMap(_(j))

  /** A row as (header, value) pairs, nulls skipped — serialization input. */
  def rowPairs(i: Int): Vector[(String, String)] =
    cols.zip(rows(i)).collect { case (c, Some(v)) => (c.header, v) }
}

object SimpleTable {
  /** Convenience constructor for fully-present tables. */
  def dense(name: String, baseId: Int, cols: Vector[ColumnSpec], rows: Vector[Vector[String]]): SimpleTable =
    SimpleTable(name, baseId, cols, rows.map(_.map(Option(_))), rows.indices.toVector)

  /** Requires distinct names: alignment, outer union and pruning key tables by name. */
  private[repro] def requireDistinctNames(tables: Seq[SimpleTable], where: String): Unit = {
    val repeated = tables.groupBy(_.name).collect { case (n, ts) if ts.size > 1 => n }
    require(repeated.isEmpty, s"$where: repeated table names ${repeated.toSeq.sorted.mkString(", ")}")
  }
}

/** Whitespace/punctuation tokenizer shared by all embedding models. */
object Tokenizer {
  // Compiled once: replaceAll compiles its regex per call.
  private val TrailingDigits = java.util.regex.Pattern.compile("\\d+$")

  /** Lowercased alphanumeric tokens: the maximal runs of ASCII letters and
    * digits in `text.toLowerCase`. That is what splitting it on
    * `[^\p{Alnum}]+` and dropping empty parts gives, since `\p{Alnum}` is
    * ASCII `[a-zA-Z0-9]` without `UNICODE_CHARACTER_CLASS`.
    */
  def tokens(text: String): Vector[String] = columnTokens(text :: Nil)

  /** Tokens of a whole column (all values concatenated). */
  def columnTokens(values: Seq[String]): Vector[String] = {
    val out = Vector.newBuilder[String]
    values.foreach { text =>
      val s = text.toLowerCase
      var i = 0
      while (i < s.length) {
        while (i < s.length && !isAlnum(s.charAt(i))) i += 1
        val start = i
        while (i < s.length && isAlnum(s.charAt(i))) i += 1
        if (i > start) out += s.substring(start, i)
      }
    }
    out.result()
  }

  private def isAlnum(c: Char): Boolean =
    (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z')

  /** The "distributional context" key of a token: trailing digits stripped.
    *
    * Tokens minted by the generators share this key exactly when they come
    * from the same column vocabulary (e.g. `t3c2v17` → `t3c2v`), and all
    * pure numbers share the empty key. Hash models use it to simulate the
    * co-occurrence structure a pre-trained model would have absorbed.
    */
  def contextKey(token: String): String = TrailingDigits.matcher(token).replaceAll("")
}
