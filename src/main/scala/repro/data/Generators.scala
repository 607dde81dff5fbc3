package repro.data

import repro.util.Rng

/** A table-union-search benchmark: query tables + a data lake with ground truth.
  *
  * Ground truth follows TUS/SANTOS construction: tables derived from the same
  * base table are unionable, others are not.
  */
final case class LakeBenchmark(
    name: String,
    queries: Vector[SimpleTable],
    lake: Vector[SimpleTable],
) {
  SimpleTable.requireDistinctNames(queries ++ lake, s"benchmark $name")

  /** Ground-truth unionable lake tables for a query. */
  def unionableFor(q: SimpleTable): Vector[SimpleTable] = lake.filter(_.baseId == q.baseId)

  def nLakeColumns: Int = lake.map(_.nCols).sum
  def nLakeTuples: Long = lake.map(_.nRows.toLong).sum
  def nQueryColumns: Int = queries.map(_.nCols).sum
  def nQueryTuples: Long = queries.map(_.nRows.toLong).sum
  def avgUnionablePerQuery: Double =
    if (queries.isEmpty) 0.0
    else queries.map(q => unionableFor(q).size).sum.toDouble / queries.size
}

/** Synthetic data-lake generators replicating how the paper's benchmarks were
  * themselves built (select/project from base tables; §6.1):
  *
  *  - every base table has a private per-column vocabulary (`t<base>c<col>v<i>`)
  *    so columns projected from the same base column are alignable;
  *  - string cells mix in tokens from a lake-wide common vocabulary (`com<i>`),
  *    giving every tuple a shared "stopword" direction — the reason raw
  *    pre-trained embeddings cannot separate unionable from non-unionable pairs;
  *  - derived tables take a contiguous row window of the base (overlapping
  *    windows ⇒ near-duplicate tables, the redundancy DUST targets) and a
  *    column subset, with occasional header renaming and column shuffles;
  *  - each query additionally gets one near-copy lake table (its own rows plus
  *    a couple extra), mirroring Fig. 1's Table (b).
  */
object Generators {

  /** Knobs for one TUS-style benchmark instance. */
  final case class GenConfig(
      name: String,
      nBases: Int,
      rowsPerBase: Int,
      colsPerBase: Int,
      tablesPerBase: Int,
      nQueries: Int,
      rowFrac: Double,       // lake-table window length as fraction of base rows
      queryRowFrac: Double,  // query-table window length (paper queries are large)
      colKeepProb: Double,   // per-column survival in projection
      pNumeric: Double,      // fraction of base columns that are numeric
      pCommon: Double,       // probability a string cell carries a common token
      pBleed: Double,        // probability a cell token leaks from a sibling column
      pJunk: Double,         // probability a cell carries a unique junk token (ids/typos)
      vocabPerColumn: Int,
      commonVocab: Int,
      renameProb: Double,    // probability a kept column's header is a variant
      shuffleCols: Boolean,
      seed: Long,
  )

  val tusLiteConfig: GenConfig = GenConfig(
    name = "TUS-lite", nBases = 16, rowsPerBase = 120, colsPerBase = 6,
    tablesPerBase = 14, nQueries = 8, rowFrac = 0.18, queryRowFrac = 0.3, colKeepProb = 0.8,
    pNumeric = 0.2, pCommon = 0.35, pBleed = 0.45, pJunk = 0.55,
    vocabPerColumn = 40, commonVocab = 30,
    renameProb = 0.3, shuffleCols = true, seed = 101,
  )

  val santosLiteConfig: GenConfig = GenConfig(
    name = "SANTOS-lite", nBases = 12, rowsPerBase = 200, colsPerBase = 7,
    tablesPerBase = 6, nQueries = 10, rowFrac = 0.18, queryRowFrac = 0.6, colKeepProb = 0.75,
    pNumeric = 0.4, pCommon = 0.35, pBleed = 0.4, pJunk = 0.45,
    vocabPerColumn = 50, commonVocab = 30,
    renameProb = 0.25, shuffleCols = true, seed = 202,
  )

  val ugenLiteConfig: GenConfig = GenConfig(
    name = "UGEN-V1-lite", nBases = 20, rowsPerBase = 30, colsPerBase = 5,
    tablesPerBase = 10, nQueries = 10, rowFrac = 0.35, queryRowFrac = 0.4, colKeepProb = 0.85,
    pNumeric = 0.2, pCommon = 0.3, pBleed = 0.4, pJunk = 0.25,
    vocabPerColumn = 25, commonVocab = 30,
    renameProb = 0.2, shuffleCols = false, seed = 303,
  )

  /** One base table: full vocabulary, full rows. */
  private[data] def baseTable(cfg: GenConfig, b: Int, rng: Rng): SimpleTable = {
    val cols = (0 until cfg.colsPerBase).map { j =>
      // Column 0 is always textual so every derived table keeps a string
      // column; SANTOS-style "binary relationship" pairs are cols 0 and 1.
      val numeric = j > 1 && rng.nextDouble() < cfg.pNumeric
      ColumnSpec(header = s"t${b}c${j}h0", baseCol = j, numeric = numeric)
    }.toVector
    val stringCols = cols.collect { case c if !c.numeric => c.baseCol }
    val rows = (0 until cfg.rowsPerBase).map { _ =>
      cols.map { c =>
        if (c.numeric) rng.nextInt(1000).toString
        else {
          // Cross-column vocabulary bleed: open-data cells routinely carry
          // words "belonging" to sibling columns (addresses in names,
          // categories in descriptions, …), which is what makes real
          // column alignment hard (Table 1's sub-1.0 scores).
          val srcCol =
            if (stringCols.size > 1 && rng.nextDouble() < cfg.pBleed)
              stringCols(rng.nextInt(stringCols.size))
            else c.baseCol
          val main = s"t${b}c${srcCol}v${rng.nextInt(cfg.vocabPerColumn)}"
          val withCommon =
            if (rng.nextDouble() < cfg.pCommon) s"$main com${rng.nextInt(cfg.commonVocab)}"
            else main
          // Junk: unique ids / typos, everywhere in open data. Pure surface
          // noise (no shared context) that column-level TF-IDF pooling
          // tolerates far better than cell-level averaging.
          if (rng.nextDouble() < cfg.pJunk) s"$withCommon x${rng.nextInt(1000000)}"
          else withCommon
        }
      }
    }.toVector
    SimpleTable.dense(s"${cfg.name}-base$b", b, cols, rows)
  }

  /** Derive a lake/query table from a base: `rowFrac` row window + column projection. */
  private[data] def derive(cfg: GenConfig, base: SimpleTable, tableName: String, rng: Rng,
                           rowFrac: Double): SimpleTable = {
    val winLen = math.max(3, (base.nRows * rowFrac).toInt)
    val start  = rng.nextInt(math.max(1, base.nRows - winLen + 1))
    val rowIdx = (start until math.min(base.nRows, start + winLen)).toVector

    val kept0 = base.cols.indices.filter(j => j < 2 || rng.nextDouble() < cfg.colKeepProb)
    val kept  = if (kept0.size >= 2) kept0 else Vector(0, 1)
    val order = if (cfg.shuffleCols) rng.shuffle(kept) else kept.toVector

    val cols = order.map { j =>
      val c = base.cols(j)
      val header =
        if (rng.nextDouble() < cfg.renameProb) s"t${base.baseId}c${c.baseCol}h${1 + rng.nextInt(2)}"
        else c.header
      c.copy(header = header)
    }.toVector
    val rows = rowIdx.map(i => order.map(j => base.rows(i)(j)).toVector)
    SimpleTable(tableName, base.baseId, cols, rows, rowIdx)
  }

  /** A near-copy of `q`: the query's rows plus a couple of fresh base rows
    * (Fig. 1 Table (b) — "mostly a copy of the query table").
    */
  private[data] def nearCopy(base: SimpleTable, q: SimpleTable, name: String, rng: Rng): SimpleTable = {
    val extra = base.rows.indices.filterNot(q.baseRowIds.toSet).take(2).toVector
    val rowIds = q.baseRowIds ++ extra
    // Same column order/headers as the query, so it is maximally similar.
    val colIdx = q.cols.map(c => base.cols.indexWhere(_.baseCol == c.baseCol))
    val rows = rowIds.map(i => colIdx.map(j => base.rows(i)(j)))
    SimpleTable(name, base.baseId, q.cols, rows, rowIds)
  }

  /** Generate a full benchmark from a config. */
  def generate(cfg: GenConfig): LakeBenchmark = {
    val rng = new Rng(cfg.seed)
    val bases = (0 until cfg.nBases).map(b => baseTable(cfg, b, rng)).toVector

    val queries = (0 until cfg.nQueries).map { qi =>
      val base = bases(qi % cfg.nBases)
      derive(cfg, base, s"${cfg.name}-query$qi", rng, cfg.queryRowFrac)
    }.toVector

    val lake = Vector.newBuilder[SimpleTable]
    bases.zipWithIndex.foreach { case (base, b) =>
      (0 until cfg.tablesPerBase).foreach { t =>
        lake += derive(cfg, base, s"${cfg.name}-dl-b$b-$t", rng, cfg.rowFrac)
      }
    }
    // Redundancy by construction: a near-copy of every query lives in the lake.
    queries.zipWithIndex.foreach { case (q, qi) =>
      lake += nearCopy(bases(q.baseId), q, s"${cfg.name}-dl-copy$qi", rng)
    }
    LakeBenchmark(cfg.name, queries, lake.result())
  }

  lazy val tusLite: LakeBenchmark    = generate(tusLiteConfig)
  lazy val santosLite: LakeBenchmark = generate(santosLiteConfig)
  lazy val ugenLite: LakeBenchmark   = generate(ugenLiteConfig)

  /** TUS-Sampled: fewer queries, 10 unionable lake tables each (§6.1.1). */
  lazy val tusSampledLite: LakeBenchmark = {
    val full = tusLite
    val rng = new Rng(404)
    val queries = full.queries.take(6)
    val keptBases = queries.map(_.baseId).toSet
    val lake = full.lake
      .filter(t => keptBases.contains(t.baseId))
      .groupBy(_.baseId)
      .values
      .flatMap(ts => rng.shuffle(ts).take(10))
      .toVector
      .sortBy(_.name)
    LakeBenchmark("TUS-Sampled-lite", queries, lake)
  }

  // -------------------------------------------------------------------------
  // IMDB case-study benchmark (§6.6): one movie base table, 1 query + 20
  // unionable tables sampled from it. Columns mimic the IMDB dump's schema.
  // -------------------------------------------------------------------------

  /** IMDB-lite: returns (query, 20 unionable lake tables). */
  lazy val imdbLite: (SimpleTable, Vector[SimpleTable]) = {
    val rng = new Rng(707)
    val nMovies = 300
    val genres    = Vector("drama", "comedy", "action", "thriller", "romance", "scifi",
                           "horror", "fantasy", "crime", "war", "western", "musical")
    // Pools sized so a query window covers only part of them — novel
    // languages/locations remain discoverable in the lake (Fig 8).
    val languages = (0 until 40).map(i => s"lang$i").toVector
    val locations = (0 until 120).map(i => s"loc$i city$i").toVector
    val headers = Vector("title", "director", "genre", "budget", "filming_locations",
                         "language", "year", "rating", "runtime", "country", "studio",
                         "writer", "boxoffice")
    val numericCols = Set(3, 6, 7, 8, 12)
    val cols = headers.zipWithIndex.map { case (h, j) =>
      ColumnSpec(h, j, numericCols.contains(j))
    }.toVector
    val rows = (0 until nMovies).map { i =>
      Vector(
        s"movie$i title$i",
        s"director${i % 80}",
        genres(rng.nextInt(genres.length)),
        (1 + rng.nextInt(200)).toString,          // budget (M$)
        locations(rng.nextInt(locations.length)),
        languages(rng.nextInt(languages.length)),
        (1990 + rng.nextInt(35)).toString,
        (10 + rng.nextInt(90)).toString,          // rating x10
        (80 + rng.nextInt(100)).toString,
        s"country${i % 20}",
        s"studio${i % 40}",
        s"writer${i % 100}",
        (1 + rng.nextInt(900)).toString,
      )
    }.toVector

    def window(name: String, len: Int): SimpleTable = {
      val start = rng.nextInt(nMovies - len + 1)
      val idx = (start until start + len).toVector
      SimpleTable(name, 0, cols, idx.map(rows(_).map(Option(_))), idx)
    }
    val query = window("imdb-query", 40)
    val lake = (0 until 20).map(i => window(s"imdb-dl$i", 80 + rng.nextInt(41))).toVector
    (query, lake)
  }
}
