package repro.core

import org.apache.spark.sql.SparkSession
import repro.data.{LakeBenchmark, SimpleTable}
import repro.embed.{ColumnEmbedders, TfIdf}
import repro.search.UnionSearch
import repro.util.Par

/** DUST end-to-end (Algorithm 1): SearchTables → AlignColumns → EmbedTuples
  * → DiversifyTuples.
  */
object Dust {

  final case class Config(
      topN: Int = 10,   // unionable tables retrieved by SearchTables
      k: Int = 30,      // output diverse tuples
      p: Int = 2,       // candidate multiplier (App. A.2.2)
      s: Int = 2500,    // pruning budget (§5.1)
  )

  final case class Result(
      tables: Vector[SimpleTable],
      aligned: ColumnAlignment.Aligned,
      queryTuples: Vector[OuterUnion.UnionTuple],
      lakeTuples: Vector[OuterUnion.UnionTuple],
      queryEmb: Vector[Array[Double]],
      selected: Vector[OuterUnion.UnionTuple],
  )

  /** Embed unionable tuples with the fine-tuned model. */
  def embedTuples(model: DustModel, tuples: Seq[OuterUnion.UnionTuple]): Vector[DiversifyTuples.EmbTuple] =
    tuples.toVector.zip(embed(model, tuples)).map { case (t, v) => DiversifyTuples.EmbTuple(t.id, t.table, v) }

  /** The fine-tuned embedding of each tuple, in order; a token shared by
    * several tuples is embedded once. Tuples are embedded in parallel, each
    * exactly as `model.embed` embeds it alone.
    */
  def embed(model: DustModel, tuples: Seq[OuterUnion.UnionTuple]): Vector[Array[Double]] = {
    val tokens = model.base.lm.tokenTable()
    val ts = tuples.toIndexedSeq
    Par.tabulate(ts.size)(i => model.embed(ts(i).pairs, tokens)).toVector
  }

  /** Full pipeline on the driver.
    *
    * @param tablesOverride bypass SearchTables with a fixed unionable set
    *                       (the Table 2 experiments diversify ground-truth
    *                       unionable tables, as the paper does)
    */
  def run(query: SimpleTable, bench: LakeBenchmark, model: DustModel, cfg: Config,
          tfidfOpt: Option[TfIdf] = None,
          tablesOverride: Option[Vector[SimpleTable]] = None): Result =
    pipeline(query, bench, model, cfg, tfidfOpt, tablesOverride) { (lakeEmb, queryEmb) =>
      DiversifyTuples.run(lakeEmb, queryEmb, cfg.k, cfg.p, cfg.s)
    }

  /** Same pipeline with the prune and re-rank steps executed as Spark
    * dataflows over the embedded-tuple frames (the lake-scale deployment
    * path); clustering stays on the driver. Selects what [[run]] selects.
    */
  def runSpark(spark: SparkSession, query: SimpleTable, bench: LakeBenchmark, model: DustModel,
               cfg: Config, tfidfOpt: Option[TfIdf] = None,
               tablesOverride: Option[Vector[SimpleTable]] = None): Result =
    pipeline(query, bench, model, cfg, tfidfOpt, tablesOverride) { (lakeEmb, queryEmb) =>
      import DiversifyTuples._
      val pruned = fromDF(sparkPrune(spark, toDF(spark, lakeEmb), cfg.s))
      val medoids = clusterMedoids(pruned, cfg.k * cfg.p)
      val queryDf = toDF(spark, queryEmb.zipWithIndex.map { case (v, i) => EmbTuple(i.toLong, query.name, v) })
      fromDF(sparkRerank(spark, toDF(spark, medoids), queryDf, cfg.k).orderBy("rk"))
    }

  /** SearchTables → AlignColumns → OuterUnion → EmbedTuples, then
    * `diversify(lake embeddings, query embeddings)`. Search and alignment
    * embed columns with [[ColumnEmbedders.dustDefault]].
    */
  private def pipeline(query: SimpleTable, bench: LakeBenchmark, model: DustModel, cfg: Config,
                       tfidfOpt: Option[TfIdf],
                       tablesOverride: Option[Vector[SimpleTable]])(
      diversify: (Vector[DiversifyTuples.EmbTuple], Vector[Array[Double]]) => Vector[DiversifyTuples.EmbTuple]
  ): Result = {
    val tfidf = tfidfOpt.getOrElse(TfIdf.fit(bench.lake :+ query))
    val embedder = ColumnEmbedders.dustDefault
    val tables = tablesOverride.getOrElse(
      UnionSearch.searchTables(query, bench, cfg.topN, embedder, tfidf))
    val aligned = ColumnAlignment.alignHolistic(query, tables, embedder, tfidf)
    val lakeTuples = OuterUnion.union(query, tables, aligned)
    val queryTuples = OuterUnion.queryTuples(query)
    val lakeEmb = embedTuples(model, lakeTuples)
    val queryEmb = embed(model, queryTuples)
    val chosen = diversify(lakeEmb, queryEmb)
    val byId = lakeTuples.map(t => t.id -> t).toMap
    Result(tables, aligned, queryTuples, lakeTuples, queryEmb, chosen.map(c => byId(c.id)))
  }
}
