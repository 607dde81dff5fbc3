package repro.core

import org.apache.spark.sql.SparkSession
import repro.data.{LakeBenchmark, SimpleTable}
import repro.embed.{ColumnEmbedders, TfIdf}
import repro.search.UnionSearch

/** DUST end-to-end (Algorithm 1): SearchTables → [[prepare]] (AlignColumns →
  * OuterUnion → EmbedTuples) → [[diversify]] (DiversifyTuples, Algorithm 2).
  */
object Dust {

  final case class Config(
      topN: Int = 10,   // unionable tables retrieved by SearchTables
      k: Int = 30,      // output diverse tuples
      s: Int = 2500,    // pruning budget (§5.1)
  ) {
    /** Candidate multiplier: clustering keeps k·p medoids (App. A.2.2). */
    val p: Int = 2
    require(topN >= 1 && k >= 1 && s >= 1, s"Config needs topN, k and s >= 1: $this")
    require(s >= k, s"Config needs s >= k, or pruning leaves fewer than k tuples: $this")
  }

  /** Stage outputs of one query. `lakeEmb(i)` embeds `lakeTuples(i)`, whose
    * id is `i`; `selected` is empty until [[diversify]] fills it.
    */
  final case class Result(
      tables: Vector[SimpleTable],
      aligned: ColumnAlignment.Aligned,
      queryTuples: Vector[OuterUnion.UnionTuple],
      lakeTuples: Vector[OuterUnion.UnionTuple],
      queryEmb: Vector[Array[Double]],
      selected: Vector[OuterUnion.UnionTuple],
      lakeEmb: Vector[DiversifyTuples.EmbTuple],
  ) {
    /** The embeddings of the selected tuples, in selection order. */
    def selectedEmb: Vector[Array[Double]] = selected.map(t => lakeEmb(t.id.toInt).vec)

    private[Dust] def select(chosen: Vector[DiversifyTuples.EmbTuple]): Result =
      copy(selected = chosen.map(c => lakeTuples(c.id.toInt)))
  }

  /** Embed unionable tuples with the fine-tuned model, as one batch call
    * (`DustModel.embedAll`).
    */
  def embedTuples(model: DustModel, tuples: Seq[OuterUnion.UnionTuple]): Vector[DiversifyTuples.EmbTuple] =
    withVecs(tuples, model.embedAll(tuples.map(_.pairs)))

  private def withVecs(tuples: Seq[OuterUnion.UnionTuple], vecs: Seq[Array[Double]]): Vector[DiversifyTuples.EmbTuple] =
    tuples.toVector.zip(vecs).map { case (t, v) => DiversifyTuples.EmbTuple(t.id, t.table, v) }

  /** Algorithm 1 over a given table set: AlignColumns (with
    * [[ColumnEmbedders.dustDefault]]) → OuterUnion → EmbedTuples. The query
    * tuples and the union's tuples are embedded in one batch call, so a
    * tuple that occurs in both is embedded once and shares its array.
    * The query's and the tables' names must be distinct.
    */
  def prepare(query: SimpleTable, tables: Vector[SimpleTable], model: DustModel, tfidf: TfIdf): Result = {
    SimpleTable.requireDistinctNames(query +: tables, s"query ${query.name}")
    val aligned = ColumnAlignment.alignHolistic(query, tables, ColumnEmbedders.dustDefault, tfidf)
    val lakeTuples = OuterUnion.union(query, tables, aligned)
    val queryTuples = OuterUnion.queryTuples(query)
    val (queryEmb, lakeVecs) = model.embedAll((queryTuples ++ lakeTuples).map(_.pairs)).splitAt(queryTuples.size)
    Result(tables, aligned, queryTuples, lakeTuples, queryEmb, Vector.empty, withVecs(lakeTuples, lakeVecs))
  }

  /** Algorithm 2 on the driver over a prepared union: prune, cluster,
    * re-rank. Selects min(k, |union|) distinct tuples: pruning keeps
    * min(s, |union|) of them, and s >= k.
    */
  def diversify(u: Result, cfg: Config): Result =
    u.select(DiversifyTuples.run(u.lakeEmb, u.queryEmb, cfg.k, cfg.p, cfg.s))

  /** Full pipeline on the driver.
    *
    * @param tablesOverride bypass SearchTables with a fixed unionable set
    *                       (the Table 2 experiments diversify ground-truth
    *                       unionable tables, as the paper does)
    */
  def run(query: SimpleTable, bench: LakeBenchmark, model: DustModel, cfg: Config,
          tfidfOpt: Option[TfIdf] = None,
          tablesOverride: Option[Vector[SimpleTable]] = None): Result =
    diversify(searchAndPrepare(query, bench, model, cfg, tfidfOpt, tablesOverride), cfg)

  /** Same pipeline with the prune and re-rank steps executed as Spark
    * dataflows over the embedded-tuple frames (the lake-scale deployment
    * path); clustering stays on the driver. Selects what [[run]] selects.
    */
  def runSpark(spark: SparkSession, query: SimpleTable, bench: LakeBenchmark, model: DustModel,
               cfg: Config, tfidfOpt: Option[TfIdf] = None,
               tablesOverride: Option[Vector[SimpleTable]] = None): Result = {
    import DiversifyTuples._
    val u = searchAndPrepare(query, bench, model, cfg, tfidfOpt, tablesOverride)
    val pruned = fromDF(sparkPrune(spark, toDF(spark, u.lakeEmb), cfg.s))
    val medoids = clusterMedoids(pruned, cfg.k * cfg.p)
    val queryDf = toDF(spark, u.queryTuples.zip(u.queryEmb).map { case (t, v) => EmbTuple(t.id, t.table, v) })
    u.select(fromDF(sparkRerank(spark, toDF(spark, medoids), queryDf, cfg.k).orderBy("rk")))
  }

  /** SearchTables (unless `tablesOverride` fixes the tables), then [[prepare]]. */
  private def searchAndPrepare(query: SimpleTable, bench: LakeBenchmark, model: DustModel, cfg: Config,
                               tfidfOpt: Option[TfIdf],
                               tablesOverride: Option[Vector[SimpleTable]]): Result = {
    require(query.nRows > 0, s"query ${query.name} has no rows")
    val tfidf = tfidfOpt.getOrElse(TfIdf.fit(bench.lake :+ query))
    val tables = tablesOverride.getOrElse(
      UnionSearch.searchTables(query, bench, cfg.topN, ColumnEmbedders.dustDefault, tfidf))
    prepare(query, tables, model, tfidf)
  }
}
