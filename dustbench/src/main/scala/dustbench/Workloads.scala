package dustbench

import org.apache.spark.sql.SparkSession
import repro.core.{Dust, DustModel}
import repro.data.{Generators, LakeBenchmark, SimpleTable}
import repro.embed.TfIdf
import repro.util.Rng

/** One benchmark workload: the lake shape, the DUST configuration and the
  * user call a query makes. Why each workload exists is recorded in
  * `BENCHMARK.json` and `dustbench/RATIONALE.md`.
  *
  * @param freshLakePerQuery every query runs against a lake generated for it
  *                          alone, and TF-IDF is fitted inside `Dust.run`
  * @param bypassSearch      the unionable tables are the ground-truth set
  *                          (`tablesOverride`), as the Table 2 runs do
  * @param onSpark           the query is `Dust.runSpark`, not `Dust.run`
  * @param warmup            queries run before timing starts, part of set-up;
  *                          Spark's first queries compile and plan for longer
  */
final case class Workload(
    name: String,
    gen: Generators.GenConfig,
    cfg: Dust.Config,
    freshLakePerQuery: Boolean,
    bypassSearch: Boolean,
    onSpark: Boolean,
    warmup: Int,
)

/** Inputs of one query, all generated from the workload seed. */
final case class QueryInput(query: SimpleTable, bench: LakeBenchmark,
                            tfidf: Option[TfIdf], tables: Option[Vector[SimpleTable]])

object Workloads {

  private val santos = Generators.santosLiteConfig

  /** Long bases: with SANTOS-lite's windows (lake tables 0.18, queries 0.6
    * of the base rows) a query unions several times s = `Benchmarks.pruneS`
    * tuples, so prune really cuts. Each of the 32 queries has a base of its
    * own, so a run's median rests on about as many independently drawn bases
    * as it times queries, rather than on a few.
    */
  private val bigUnion = santos.copy(
    name = "big-union", nBases = 32, rowsPerBase = 1000, tablesPerBase = 8, nQueries = 32)

  val all: Vector[Workload] = Vector(
    // Warm-up asks each of the lake's ten queries once.
    Workload("lake_warm", santos, Dust.Config(),
      freshLakePerQuery = false, bypassSearch = false, onSpark = false, warmup = 10),
    Workload("lake_cold", santos, Dust.Config(),
      freshLakePerQuery = true, bypassSearch = false, onSpark = false, warmup = 5),
    Workload("big_union", bigUnion, Dust.Config(s = repro.exp.Benchmarks.pruneS),
      freshLakePerQuery = false, bypassSearch = true, onSpark = false, warmup = 5),
    // Runs on demand but is not listed in BENCHMARK.json: on these inputs
    // Dust.runSpark selects other tuples than Dust.run, so every run reports
    // `correct: false` (RATIONALE.md, "Known failure on spark_path").
    Workload("spark_path", bigUnion, Dust.Config(s = repro.exp.Benchmarks.pruneS),
      freshLakePerQuery = false, bypassSearch = true, onSpark = true, warmup = 4),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** Generates a workload's query inputs from its seed. A shared lake and its
  * TF-IDF are built once, here, as `Table3Experiment` does; fresh lakes are
  * generated per query, outside the timed call.
  */
final class Inputs(w: Workload, seed: Long) {
  private val shared: Option[LakeBenchmark] =
    if (w.freshLakePerQuery) None else Some(Generators.generate(w.gen.copy(seed = seed)))

  /** TF-IDF fitted up front and its fit time in nanoseconds. */
  val (sharedTfidf: Option[TfIdf], fitNs: Long) = shared match {
    case Some(b) =>
      val t0 = System.nanoTime()
      val tf = TfIdf.fit(b.lake ++ b.queries)
      (Some(tf), System.nanoTime() - t0)
    case None => (None, 0L)
  }

  def apply(i: Int): QueryInput = {
    val bench = shared.getOrElse(Generators.generate(w.gen.copy(seed = Rng.mix(seed, i.toLong))))
    val q = bench.queries(i % bench.queries.size)
    QueryInput(q, bench, sharedTfidf, if (w.bypassSearch) Some(bench.unionableFor(q)) else None)
  }

  /** The user call: one DUST query. */
  def run(in: QueryInput, model: DustModel, spark: Option[SparkSession]): Dust.Result =
    spark match {
      case Some(s) => Dust.runSpark(s, in.query, in.bench, model, w.cfg,
                                    tfidfOpt = in.tfidf, tablesOverride = in.tables)
      case None    => Dust.run(in.query, in.bench, model, w.cfg,
                               tfidfOpt = in.tfidf, tablesOverride = in.tables)
    }
}
