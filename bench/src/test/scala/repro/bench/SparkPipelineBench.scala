package repro.bench

import java.nio.file.Files
import repro.SparkSpec
import repro.core.Dust
import repro.data.{LakeBenchmark, LakeIO}
import repro.exp.{Benchmarks, Models}

/** Deployment-path bench: the full DUST pipeline over a lake read back from
  * Parquet, with the prune/re-rank stages executed as Spark dataflows,
  * checked equal to the driver-side algorithmic core on the in-memory lake.
  */
class SparkPipelineBench extends SparkSpec {

  test("Parquet-backed Spark pipeline equals the driver pipeline (SANTOS-lite)") {
    val bench = Benchmarks.santos
    val dir = Files.createTempDirectory("dust-lake").resolve("parquet").toString
    val (_, writeNs) = repro.exp.Fmt.timed(LakeIO.write(spark, bench.lake, dir))
    val (lakeBack, readNs) = repro.exp.Fmt.timed(LakeIO.read(spark, dir))
    println(f"\n=== Spark lake IO (SANTOS-lite, ${bench.lake.size} tables, " +
      f"${bench.nLakeTuples} tuples) ===")
    println(f"parquet write ${writeNs / 1e6}%.0f ms, read ${readNs / 1e6}%.0f ms")
    assert(lakeBack.map(_.name).sorted == bench.lake.map(_.name).sorted.toVector)

    val q = bench.queries.head
    val cfg = Dust.Config(topN = 6, k = 20, s = 400)
    val tfidf = Some(Benchmarks.tfidfFor(bench))
    val (driver, dNs) = repro.exp.Fmt.timed(
      Dust.run(q, bench, Models.dustRoberta, cfg, tfidfOpt = tfidf))
    val (viaSpark, sNs) = repro.exp.Fmt.timed(Dust.runSpark(
      spark, q, LakeBenchmark(bench.name, bench.queries, lakeBack), Models.dustRoberta, cfg, tfidfOpt = tfidf))
    println(f"driver pipeline ${dNs / 1e6}%.0f ms, spark pipeline ${sNs / 1e6}%.0f ms")
    assert(viaSpark.selected.map(_.id) == driver.selected.map(_.id),
      "Spark dataflow on the Parquet lake and driver core on the in-memory lake must select identical tuples")
    assert(driver.selected.size == cfg.k)
  }
}
