package dustbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.cluster.Hac
import repro.core.{ColumnAlignment, DiversifyTuples, Dust, DustModel, OuterUnion, Serializer}
import repro.core.DiversifyTuples.EmbTuple
import repro.data.SimpleTable
import repro.embed.{ColumnEmbedders, TfIdf}
import repro.search.UnionSearch
import repro.util.VecOps

/** The DUST query composed from the same public calls, with the same
  * arguments, that `Dust.run` / `Dust.runSpark` make, one span per call.
  * `Main` checks on every query that this composition selects the ids the
  * real call selects, so the profile cannot silently drift from the
  * pipeline it claims to describe.
  */
object TracedQuery {

  /** Keeps the re-timed token vectors observable, so the JIT cannot drop them. */
  @volatile var sink: Array[Double] = Array.emptyDoubleArray

  /** Stage outputs of one traced query. */
  final case class Stages(
      tfidf: TfIdf,
      tables: Vector[SimpleTable],
      aligned: ColumnAlignment.Aligned,
      lakeTuples: Vector[OuterUnion.UnionTuple],
      queryTuples: Vector[OuterUnion.UnionTuple],
      queryEmb: Vector[Array[Double]],
      pruned: Vector[EmbTuple],
      medoids: Vector[EmbTuple],
      selected: Vector[EmbTuple],
  )

  def pipeline(w: Workload, in: QueryInput, model: DustModel, spark: Option[SparkSession],
               t: Tracer): Stages = t.span("query") {
    val cfg = w.cfg
    val embedder = ColumnEmbedders.dustDefault
    val tfidf = in.tfidf.getOrElse(t.span("embed.tfidf_fit")(TfIdf.fit(in.bench.lake :+ in.query)))
    val tables = in.tables.getOrElse(t.span("search")(
      UnionSearch.searchTables(in.query, in.bench, cfg.topN, embedder, tfidf)))
    val aligned = t.span("core.align")(ColumnAlignment.alignHolistic(in.query, tables, embedder, tfidf))
    val (lakeTuples, queryTuples) = t.span("core.union")(
      (OuterUnion.union(in.query, tables, aligned), OuterUnion.queryTuples(in.query)))
    val (lakeEmb, queryEmb) = t.span("core.embed_tuples")(
      (Dust.embedTuples(model, lakeTuples), queryTuples.map(q => model.embed(q.pairs))))
    val (pruned, medoids, selected) = spark match {
      case None =>
        val pruned = t.span("core.prune")(DiversifyTuples.prune(lakeEmb, cfg.s))
        val medoids = t.span("cluster.medoids")(DiversifyTuples.clusterMedoids(pruned, cfg.k * cfg.p))
        (pruned, medoids, t.span("core.rerank")(DiversifyTuples.rerank(medoids, queryEmb, cfg.k)))
      case Some(s) =>
        val lakeDf = t.span("spark.to_df")(DiversifyTuples.toDF(s, lakeEmb))
        val pruned = t.span("spark.prune") {
          val df = t.span("spark.prune.plan")(DiversifyTuples.sparkPrune(s, lakeDf, cfg.s))
          t.span("spark.collect")(DiversifyTuples.fromDF(df))
        }
        val medoids = t.span("cluster.medoids")(DiversifyTuples.clusterMedoids(pruned, cfg.k * cfg.p))
        val queryDf = t.span("spark.to_df")(DiversifyTuples.toDF(s,
          queryEmb.zipWithIndex.map { case (v, i) => EmbTuple(i.toLong, in.query.name, v) }))
        val medoidDf = t.span("spark.to_df")(DiversifyTuples.toDF(s, medoids))
        val selected = t.span("spark.rerank") {
          val df = t.span("spark.rerank.plan")(DiversifyTuples.sparkRerank(s, medoidDf, queryDf, cfg.k))
          t.span("spark.collect")(DiversifyTuples.fromDF(df.orderBy("rk").select("id", "table", "vec")))
        }
        (pruned, medoids, selected)
    }
    Stages(tfidf, tables, aligned, lakeTuples, queryTuples, queryEmb, pruned, medoids, selected)
  }

  /** Kernel split, after the query: re-times the column embeddings, the
    * token vectors and the clustering kernels on the query's own stage
    * inputs, and derives the work counts from those inputs and outputs.
    * Returns the counts and whether the split reproduced the medoids that
    * `clusterMedoids` chose.
    */
  def kernels(w: Workload, in: QueryInput, model: DustModel, st: Stages,
              t: Tracer): (Map[String, Double], Boolean) = t.span("kernels") {
    val embedder = ColumnEmbedders.dustDefault
    // rankTables embeds the query once and every lake table; alignment
    // embeds the query and the retrieved tables again.
    val searched = if (in.tables.isEmpty) in.query +: in.bench.lake else Vector.empty
    val alignedTables = in.query +: st.tables
    val embedded = searched ++ alignedTables
    t.span("embed.columns")(embedded.foreach(tab => embedder.embedAll(tab, st.tfidf)))
    val columnTokens = embedded.iterator.map { tab =>
      tab.cols.indices.iterator.map(j => st.tfidf.topTokens(tab.columnValues(j)).size).sum
    }.sum

    val tupleTokens = (st.lakeTuples ++ st.queryTuples).flatMap(u => Serializer.tokens(u.pairs))
    val lm = model.base.lm
    t.span("embed.token_vec")(tupleTokens.foreach(tok => sink = lm.tokenVec(tok)))

    val n = st.pruned.size
    val medoidsAgree = n == 0 || {
      val vecs = st.pruned.map(_.vec)
      val d = t.span("cluster.dist_matrix")(Hac.distMatrix(vecs, VecOps.cosineDist))
      val dendrogram = t.span("cluster.upgma")(Hac.upgma(d))
      val medoidIds = t.span("cluster.medoid_pass") {
        val labels = dendrogram.cut(math.min(w.cfg.k * w.cfg.p, n))
        vecs.indices.groupBy(labels(_)).toVector.sortBy(_._1).map { case (_, members) =>
          st.pruned(members(VecOps.medoidIndex(members.map(vecs(_)), VecOps.cosineDist))).id
        }
      }
      medoidIds == st.medoids.map(_.id)
    }

    val tuples = st.lakeTuples.size
    val empty = st.lakeTuples.count(_.pairs.isEmpty)
    val counts = Map[String, Double](
      "search.tables_scored"     -> (if (in.tables.isEmpty) in.bench.lake.size else 0),
      "search.columns_embedded"  -> searched.map(_.nCols).sum,
      "embed.tokens"             -> columnTokens,
      "core.align.columns"       -> alignedTables.map(_.nCols).sum,
      "core.align.clusters_kept" -> st.aligned.clusters.size,
      "core.union.tuples"        -> tuples,
      "core.union.empty_tuples"  -> empty,
      "core.union.empty_share"   -> (if (tuples == 0) 0.0 else empty.toDouble / tuples),
      "core.embed_tuples.count"  -> (tuples + st.queryTuples.size),
      "core.embed_tuples.tokens" -> tupleTokens.size,
      "core.prune.in"            -> tuples,
      "core.prune.out"           -> n,
      "cluster.points"           -> n,
      "cluster.dist_evals"       -> n.toDouble * (n - 1) / 2,
      "core.rerank.dist_evals"   -> st.medoids.size.toDouble * st.queryEmb.size,
    )
    (counts, medoidsAgree)
  }
}

/** Counts Spark jobs and tasks from the listener bus. */
final class SparkCounter extends SparkListener {
  @volatile private var started = 0L
  @volatile private var ended = 0L
  @volatile private var tasks = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = started += 1
  override def onJobEnd(e: SparkListenerJobEnd): Unit = ended += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks += 1

  /** (jobs, tasks) once the bus has delivered the events of every finished
    * job: each started job has ended and the counts held still for 60 ms.
    * Throws if they have not settled within 10 s, rather than report counts
    * that may be short.
    */
  def settled(): (Long, Long) = {
    val deadline = System.nanoTime() + 10_000_000_000L
    var last = (-1L, -1L)
    var still = 0
    while (still < 3) {
      if (System.nanoTime() > deadline)
        throw new IllegalStateException(s"Spark job and task counts did not settle within 10 s " +
          s"($started jobs started, $ended ended, $tasks tasks)")
      Thread.sleep(20)
      val now = (started, tasks)
      if (now == last && ended == started) still += 1 else still = 0
      last = now
    }
    last
  }
}
