package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

object JobUtil {

  /** A local SparkSession for the Spark path (`Dust.runSpark`), stopped
    * when `body` returns.
    */
  def withSpark[A](name: String)(body: SparkSession => A): A = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try body(spark)
    finally spark.stop()
  }
}

// One entrypoint per reproduced table; each prints the table exactly as the
// bench suite does. The experiments run on the driver and open no SparkSession.

/** Fig 5 — benchmark statistics. */
object Fig5Job {
  def main(args: Array[String]): Unit =
    println(Fig5Stats.render(Fig5Stats.all()))
}

/** Table 1 — column alignment effectiveness. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val rows = Table1Experiment.run(Seq(Benchmarks.tusSampled, Benchmarks.santos, Benchmarks.ugen))
    println(Table1Experiment.render(rows))
  }
}

/** Fig 6 — tuple representation accuracy. */
object Fig6Job {
  def main(args: Array[String]): Unit =
    println(Fig6Experiment.render(Fig6Experiment.run()))
}

/** Table 2 — diversification effectiveness/efficiency. */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val santos = Table2Experiment.run(Benchmarks.santos, Benchmarks.santosK, includeGne = false)
    val ugen = Table2Experiment.run(Benchmarks.ugen, Benchmarks.ugenK, includeGne = true)
    println(Table2Experiment.render(santos, ugen))
  }
}

/** Table 3 — DUST vs table search techniques. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val santos = Table3Experiment.run(Benchmarks.santos, Benchmarks.santosK)
    val ugen = Table3Experiment.run(Benchmarks.ugen, Benchmarks.ugenK)
    println(Table3Experiment.render(santos, ugen))
  }
}

/** Fig 7 + A.2.2/A.2.3 — scaling, pruning and p analyses. */
object ScalingJob {
  def main(args: Array[String]): Unit = {
    println(ScalingExperiment.renderTimings(ScalingExperiment.varyS(Seq(400, 800, 1600, 3200), k = 50)))
    println(ScalingExperiment.renderTimings(ScalingExperiment.varyK(Seq(25, 50, 100, 200), s = 1200)))
    println(ScalingExperiment.renderPruning(ScalingExperiment.pruningEffect(nTuples = 6000, s = 1500, k = 50)))
    println(ScalingExperiment.renderPImpact(ScalingExperiment.pImpact(Seq(1, 2, 3, 4))))
  }
}

/** Fig 8 — IMDB case study novel-value counts. */
object CaseStudyJob {
  def main(args: Array[String]): Unit =
    println(CaseStudyExperiment.render(CaseStudyExperiment.run(Seq(20, 40, 60))))
}
