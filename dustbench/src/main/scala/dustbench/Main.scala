package dustbench

import java.lang.management.ManagementFactory
import java.nio.file.Paths
import java.security.MessageDigest
import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.core.{Dust, DustModel}
import repro.exp.Models

/** DUST query benchmark. One client in a closed loop: it sends the next
  * query only after the previous answer arrived, as an analyst would.
  *
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1> --spans-dir <dir>
  *
  * `--trace 0` times the user call (`Dust.run` / `Dust.runSpark`) and prints
  * the end-to-end metrics. `--trace 1` runs the same call next to a traced
  * composition of its stages, writes the spans as JSON lines into the spans
  * directory and prints the per-layer metrics. The last line of standard
  * output is the result object.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean, spansDir: String)

  /** Every run times at least this many queries; the id digest and the
    * work counts cover exactly these, so they repeat for a given seed.
    */
  val Counted = 4

  def main(argv: Array[String]): Unit = {
    val mainStart = System.nanoTime()
    val jvmUptimeMs = ManagementFactory.getRuntimeMXBean.getUptime
    val args = parse(argv)
    val w = args.workload
    // Fine-tuning runs beside the Spark session start, as a deployment
    // would start both; set-up ends when both are done.
    val modelF = Future(Models.dustRoberta)(ExecutionContext.global)
    val inputs = new Inputs(w, args.seed)
    def go(spark: Option[SparkSession]): Int = {
      val model = Await.result(modelF, Duration.Inf)
      (0 until w.warmup).foreach(i => inputs.run(inputs(i), model, spark))
      val setupS = jvmUptimeMs / 1e3 + (System.nanoTime() - mainStart) / 1e9
      val out = new Output
      val code =
        if (args.trace) traced(args, model, inputs, spark, out)
        else timed(args, model, inputs, spark, setupS, out)
      out.print()
      code
    }
    val code =
      if (w.onSpark) repro.jobs.JobUtil.withSpark("dustbench")(s => go(Some(s)))
      else go(None)
    sys.exit(code)
  }

  private def parse(argv: Array[String]): Args = {
    def fail(msg: String): Nothing = {
      System.err.println(s"dustbench: $msg")
      System.err.println("usage: --workload <" + Workloads.all.map(_.name).mkString("|") +
        "> --seed <n> --seconds <s> --trace <0|1> --spans-dir <dir>")
      sys.exit(2)
    }
    if (argv.length % 2 != 0) fail("options take one value each")
    val kv = argv.grouped(2).map(a => a(0) -> a(1)).toMap
    def get(k: String): String = kv.getOrElse(k, fail(s"missing $k"))
    val w = Workloads.byName(get("--workload")).getOrElse(fail(s"unknown workload ${get("--workload")}"))
    val trace = get("--trace") match {
      case "0" => false
      case "1" => true
      case o   => fail(s"--trace must be 0 or 1, not $o")
    }
    Args(w, get("--seed").toLong, get("--seconds").toDouble, trace, get("--spans-dir"))
  }

  // ------------------------------------------------------------------
  // Untraced run: end-to-end metrics.
  // ------------------------------------------------------------------

  private def check(w: Workload, r: Dust.Result, reference: Option[Vector[Long]]): Option[String] = {
    val ids = r.selected.map(_.id)
    val expected = math.min(w.cfg.k, r.lakeTuples.size)
    val unioned = r.lakeTuples.map(_.id).toSet
    if (ids.size != expected) Some(s"selected ${ids.size} tuples, expected $expected")
    else if (ids.distinct.size != ids.size) Some("selected ids are not distinct")
    else if (!ids.forall(unioned)) Some("a selected id is not an unioned lake tuple")
    else reference.collect { case ref if ref != ids =>
      s"Dust.runSpark selected ${ids.mkString(",")} but Dust.run selected ${ref.mkString(",")}"
    }
  }

  /** Times queries until their summed wall time reaches `--seconds`;
    * generating inputs and checking outputs happen between queries.
    */
  private def timed(args: Args, model: DustModel, inputs: Inputs, spark: Option[SparkSession],
                    setupS: Double, out: Output): Int = {
    val w = args.workload
    // Spark selections are checked against Dust.run on the same inputs once
    // the loop is over, so the reference runs add no load between timed queries.
    val pending = ArrayBuffer.empty[(Int, QueryInput, Dust.Result)]
    val latMs = ArrayBuffer.empty[Double]
    var failed = 0
    var threw = 0
    var busyNs = 0L
    def fail(i: Int, in: QueryInput, msg: String): Unit = {
      failed += 1
      if (failed <= 3) System.err.println(s"dustbench: query $i (${in.query.name}) failed: $msg")
    }
    val digest = MessageDigest.getInstance("SHA-256")
    val gc0 = Jvm.gc()
    val cpu0 = Jvm.cpuNs()
    val loopStart = System.nanoTime()
    var i = w.warmup
    while (latMs.size < Counted || busyNs < args.seconds * 1e9) {
      val in = inputs(i)
      val t0 = System.nanoTime()
      val result = try Right(inputs.run(in, model, spark)) catch { case NonFatal(e) => Left(e) }
      val ns = System.nanoTime() - t0
      busyNs += ns
      latMs += ns / 1e6
      val error = result match {
        case Left(e)  => threw += 1; Some(s"threw $e")
        case Right(r) =>
          if (latMs.size <= Counted)
            digest.update(s"${in.query.name}:${r.selected.map(_.id).mkString(",")}\n".getBytes("UTF-8"))
          if (spark.isDefined) { pending += ((i, in, r)); None } else check(w, r, None)
      }
      error.foreach(fail(i, in, _))
      i += 1
    }
    val gc = Jvm.gc().minus(gc0)
    val cpuS = (Jvm.cpuNs() - cpu0) / 1e9
    val loopS = (System.nanoTime() - loopStart) / 1e9
    val reference = scala.collection.mutable.Map.empty[Int, Vector[Long]]
    pending.foreach { case (i, in, r) =>
      val ref = reference.getOrElseUpdate(i % w.gen.nQueries, inputs.run(in, model, None).selected.map(_.id))
      check(w, r, Some(ref)).foreach(fail(i, in, _))
    }
    pending.clear()
    val n = latMs.size
    val sorted = latMs.sorted.toVector
    out.info(s"workload ${w.name} seed ${args.seed}: $n queries in ${Fmt3(busyNs / 1e9)} s busy, " +
      s"failed_frac ${Fmt3(failed.toDouble / n)} ($failed/$n)")
    out.info(s"selected-id digest (first $Counted queries): " +
      digest.digest().take(8).map("%02x".format(_)).mkString)
    out.info(s"during the loop (${Fmt3(loopS)} s): ${gc.count} gc, ${gc.ms} ms in gc, " +
      s"process cpu ${Fmt3(cpuS)} s")
    out.info(s"query ms in order: ${latMs.map(x => f"$x%.0f").mkString(" ")}")
    out.attempted = n
    out.failed = failed
    out.metric("query_ms.p50", Stats.quantile(sorted, 0.5), "ms")
    out.metric("query_ms.p90", Stats.quantile(sorted, 0.9), "ms")
    out.metric("queries_per_s", (n - threw) / (busyNs / 1e9), "1/s")
    out.metric("setup_s", setupS, "s")
    out.metric("retained_heap_mb", Jvm.retainedHeapMb(), "MB")
    // The lake, its TF-IDF, the model and the session count as retained.
    java.lang.ref.Reference.reachabilityFence(inputs)
    java.lang.ref.Reference.reachabilityFence(model)
    java.lang.ref.Reference.reachabilityFence(spark)
    0
  }

  // ------------------------------------------------------------------
  // Traced run: per-layer metrics, drift guard, tracing overhead.
  // ------------------------------------------------------------------

  private def traced(args: Args, model: DustModel, inputs: Inputs, spark: Option[SparkSession],
                     out: Output): Int = {
    val w = args.workload
    val tracer = new Tracer
    val counter = spark.map { s => val c = new SparkCounter; s.sparkContext.addSparkListener(c); c }
    val untracedMs = ArrayBuffer.empty[Double]
    val counts = ArrayBuffer.empty[Map[String, Double]]
    var drift = 0
    val gc0 = Jvm.gc()
    val loopStart = System.nanoTime()
    var i = w.warmup
    while (counts.size < Counted || System.nanoTime() - loopStart < args.seconds * 1e9) {
      val in = inputs(i)
      def untraced(): Dust.Result = {
        val t0 = System.nanoTime()
        val r = inputs.run(in, model, spark)
        untracedMs += (System.nanoTime() - t0) / 1e6
        r
      }
      def stages(): (TracedQuery.Stages, Option[(Long, Long)]) = {
        val before = counter.map(_.settled())
        val st = tracer.forQuery(i)(TracedQuery.pipeline(w, in, model, spark, tracer))
        val jobsTasks = counter.map { c =>
          val (j1, t1) = c.settled(); val (j0, t0) = before.get
          (j1 - j0, t1 - t0)
        }
        (st, jobsTasks)
      }
      // Alternate which runs first, so neither gains from the other's warm caches.
      val (real, (st, jobsTasks)) =
        if (i % 2 == 0) { val r = untraced(); (r, stages()) }
        else { val s = stages(); (untraced(), s) }
      val (c, medoidsAgree) = tracer.forQuery(i)(TracedQuery.kernels(w, in, model, st, tracer))
      val realIds = real.selected.map(_.id)
      if (st.selected.map(_.id) != realIds || !medoidsAgree) {
        drift += 1
        System.err.println(s"dustbench: DRIFT on query $i (${in.query.name}): the traced composition " +
          s"selected ${st.selected.map(_.id).mkString(",")}, the real call ${realIds.mkString(",")}; " +
          s"kernel split reproduced the medoids: $medoidsAgree")
      }
      counts += c ++ jobsTasks.fold(Map.empty[String, Double]) { case (j, t) =>
        Map("spark.jobs" -> j.toDouble, "spark.tasks" -> t.toDouble)
      }
      i += 1
    }
    val gc = Jvm.gc().minus(gc0)
    tracer.write(Paths.get(args.spansDir, s"${w.name}-seed${args.seed}.jsonl"))

    val spans = tracer.all
    val perQuery = Tracer.perQuery(spans)
    val queries = perQuery.keys.toVector.sorted
    def medianMs(name: String): Double =
      Stats.quantile(queries.map(q => perQuery(q).get(name).fold(0L)(_._1) / 1e6).sorted, 0.5)
    val tracedMs = queries.map(q => perQuery(q)("query")._1 / 1e6).sorted
    val counted = counts.take(Counted)
    def count(name: String): Double = counted.map(_.getOrElse(name, 0.0)).sum / counted.size
    val tokenVecNs = spans.filter(_.name == "embed.token_vec").map(_.ns).sum
    val tokens = counts.map(_("core.embed_tuples.tokens")).sum

    // Stage self-time profile of the traced pipeline (kernel re-runs excluded).
    val pipelineNames = spans.map(_.name).distinct.filterNot(n => n == "kernels" || kernelSpans(n))
    val queryNs = queries.map(q => perQuery(q)("query")._1).sum.toDouble
    out.info(s"stage self time, ${w.name} seed ${args.seed}, ${queries.size} traced queries " +
      "(median ms per query, share of traced query time):")
    pipelineNames
      .map(n => (n, queries.map(q => perQuery(q).get(n).fold(0L)(_._2)).sum))
      .sortBy(-_._2)
      .foreach { case (n, selfNs) =>
        val med = Stats.quantile(queries.map(q => perQuery(q).get(n).fold(0L)(_._2) / 1e6).sorted, 0.5)
        out.info(f"  $n%-20s ${med}%9.2f ms  ${100 * selfNs / queryNs}%5.1f%%")
      }

    val untracedP50 = Stats.quantile(untracedMs.sorted.toVector, 0.5)
    val tracedP50 = Stats.quantile(tracedMs, 0.5)
    out.info(s"tracing overhead: traced p50 ${Fmt3(tracedP50)} ms, untraced p50 ${Fmt3(untracedP50)} ms; " +
      s"drift failures $drift of ${queries.size}")

    out.attempted = queries.size
    out.failed = drift
    out.metric("search.ms", medianMs("search"), "ms")
    out.metric("search.tables_scored", count("search.tables_scored"), "count")
    out.metric("search.columns_embedded", count("search.columns_embedded"), "count")
    out.metric("embed.tfidf_fit.ms",
      if (w.freshLakePerQuery) medianMs("embed.tfidf_fit") else inputs.fitNs / 1e6, "ms")
    out.metric("embed.columns.ms", medianMs("embed.columns"), "ms")
    out.metric("embed.tokens", count("embed.tokens"), "count")
    out.metric("embed.token_vec.ns_per_token", tokenVecNs / tokens, "ns")
    out.metric("core.align.ms", medianMs("core.align"), "ms")
    out.metric("core.align.columns", count("core.align.columns"), "count")
    out.metric("core.align.clusters_kept", count("core.align.clusters_kept"), "count")
    out.metric("core.union.ms", medianMs("core.union"), "ms")
    out.metric("core.union.tuples", count("core.union.tuples"), "count")
    out.metric("core.union.empty_tuples", count("core.union.empty_tuples"), "count")
    out.metric("core.union.empty_share", count("core.union.empty_share"), "share")
    out.metric("core.embed_tuples.ms", medianMs("core.embed_tuples"), "ms")
    out.metric("core.embed_tuples.count", count("core.embed_tuples.count"), "count")
    out.metric("core.embed_tuples.tokens", count("core.embed_tuples.tokens"), "count")
    out.metric("core.prune.ms", medianMs("core.prune"), "ms")
    out.metric("core.prune.in", count("core.prune.in"), "count")
    out.metric("core.prune.out", count("core.prune.out"), "count")
    out.metric("cluster.medoids.ms", medianMs("cluster.medoids"), "ms")
    out.metric("cluster.dist_matrix.ms", medianMs("cluster.dist_matrix"), "ms")
    out.metric("cluster.upgma.ms", medianMs("cluster.upgma"), "ms")
    out.metric("cluster.medoid_pass.ms", medianMs("cluster.medoid_pass"), "ms")
    out.metric("cluster.points", count("cluster.points"), "count")
    out.metric("cluster.dist_evals", count("cluster.dist_evals"), "count")
    out.metric("core.rerank.ms", medianMs("core.rerank"), "ms")
    out.metric("core.rerank.dist_evals", count("core.rerank.dist_evals"), "count")
    // The spark layer does work only on Spark workloads, which BENCHMARK.json
    // does not list (see RATIONALE.md), so its metrics appear only there.
    if (spark.isDefined) {
      out.metric("spark.to_df.ms", medianMs("spark.to_df"), "ms")
      out.metric("spark.prune.ms", medianMs("spark.prune"), "ms")
      out.metric("spark.rerank.ms", medianMs("spark.rerank"), "ms")
      out.metric("spark.collect.ms", medianMs("spark.collect"), "ms")
      out.metric("spark.jobs", count("spark.jobs"), "count")
      out.metric("spark.tasks", count("spark.tasks"), "count")
    }
    out.metric("jvm.gc.ms", gc.ms.toDouble, "ms")
    out.metric("jvm.gc.count", gc.count.toDouble, "count")
    out.metric("trace.query_ms.p50", tracedP50, "ms")
    out.metric("trace.overhead_ms", tracedP50 - untracedP50, "ms")
    out.metric("trace.drift_failures", drift.toDouble, "count")
    if (drift > 0) 3 else 0
  }

  private val kernelSpans = Set("embed.columns", "embed.token_vec", "cluster.dist_matrix",
                                "cluster.upgma", "cluster.medoid_pass")

  private def Fmt3(x: Double): String = f"$x%.3f"
}

object Stats {
  /** Linearly interpolated quantile of sorted values. */
  def quantile(sorted: IndexedSeq[Double], q: Double): Double = {
    require(sorted.nonEmpty, "quantile of no samples")
    val pos = q * (sorted.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, sorted.size - 1)
    sorted(lo) + (pos - lo) * (sorted(hi) - sorted(lo))
  }
}

object Jvm {
  final case class Gc(count: Long, ms: Long) {
    def minus(o: Gc): Gc = Gc(count - o.count, ms - o.ms)
  }

  def gc(): Gc = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    Gc(beans.map(_.getCollectionCount).sum, beans.map(_.getCollectionTime).sum)
  }

  /** CPU time of the whole process, all threads. */
  def cpuNs(): Long =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
      .getProcessCpuTime

  /** Used heap after a full collection, in MiB. */
  def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }
}

/** Collects the result object, printed as the last line of standard output;
  * informational lines go out as they come.
  */
final class Output {
  var attempted = 0
  var failed = 0
  private val metrics = ArrayBuffer.empty[(String, Double, String)]

  def info(line: String): Unit = println(line)
  def metric(name: String, value: Double, unit: String): Unit = metrics += ((name, value, unit))

  def print(): Unit = {
    val ms = metrics.map { case (n, v, u) =>
      require(!v.isNaN && !v.isInfinite, s"metric $n is $v")
      s""""$n": {"value": $v, "unit": "$u"}"""
    }
    println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${ms.mkString(", ")}}}""")
  }
}
