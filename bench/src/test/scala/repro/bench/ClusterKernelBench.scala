package repro.bench

import scala.util.hashing.MurmurHash3
import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.Hac
import repro.core.DiversifyTuples
import repro.exp.ScalingExperiment
import repro.util.VecOps

/** Kernel harness for clustering (Algorithm 2, line 4): `Hac.distMatrix`
  * (cosine, each norm taken once, as `clusterMedoids` computes it),
  * `Hac.upgma` and `DiversifyTuples.clusterMedoids(_, 60)` on Fig 7's
  * synthetic cloud of n points. Each kernel runs once to warm up and then 5
  * timed times. Prints the wall-time median, quartiles and p90 (nearest
  * rank), a checksum of the output (the distances' bits, the merges, the
  * medoid ids), and a record in `BENCH_kernels.json`'s shape without its
  * commit. Every timed run must give the warm-up's checksum.
  */
class ClusterKernelBench extends AnyFunSuite {

  private val Runs = 5

  private def kernel[A](metric: String, n: Int)(body: => A)(checksum: A => Int): Unit = {
    val sum = checksum(body)
    val ms = Vector.fill(Runs) {
      val t0 = System.nanoTime()
      val out = body
      val t = (System.nanoTime() - t0) / 1e6
      assert(checksum(out) == sum, s"$metric at n=$n gave a different output")
      t
    }.sorted
    def rank(q: Double) = ms(math.ceil(q * ms.size).toInt - 1)
    println(f"$metric n=$n%d runs (ms, sorted): ${ms.map(t => f"$t%.2f").mkString(" ")}")
    println(f"$metric n=$n%d median ${rank(0.5)}%.2f ms, IQR [${rank(0.25)}%.2f, ${rank(0.75)}%.2f], " +
      f"p90 ${rank(0.9)}%.2f ms, checksum $sum%08x")
    println(f"""record: {"nproc": ${Runtime.getRuntime.availableProcessors}, "runs": ${ms.size}, """ +
      f""""workload": "cluster_cloud_$n", "metric": "$metric", "unit": "ms", "median": ${rank(0.5)}%.2f, """ +
      f""""IQR": [${rank(0.25)}%.2f, ${rank(0.75)}%.2f], "p90": ${rank(0.9)}%.2f, "checksum": "$sum%08x"}""")
  }

  for (n <- Seq(600, 2500, 3200)) test(s"cluster kernels on a cloud of $n points, 1 warm-up and 5 timed runs") {
    val cloud = ScalingExperiment.cloud(n)
    val points = cloud.map(t => (t.vec, VecOps.norm(t.vec)))
    def distances = Hac.distMatrix(points,
      (a: (Array[Double], Double), b: (Array[Double], Double)) => VecOps.cosineDist(a._1, a._2, b._1, b._2))
    val d = distances
    println(f"\n=== Cluster kernels: cloud of $n points ===")
    kernel("dist_matrix_ms", n)(distances) { m =>
      var h = n
      for (i <- 0 until n; j <- i + 1 until n) h = MurmurHash3.mix(h, java.lang.Double.hashCode(m(i, j)))
      MurmurHash3.finalizeHash(h, n)
    }
    kernel("upgma_ms", n)(Hac.upgma(d))(den => MurmurHash3.orderedHash(den.merges))
    kernel("medoids_ms", n)(DiversifyTuples.clusterMedoids(cloud, 60))(ms => MurmurHash3.orderedHash(ms.map(_.id)))
  }
}
