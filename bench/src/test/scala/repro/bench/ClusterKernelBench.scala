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
  * synthetic cloud of n points, timed by [[KernelTiming.time]]. The
  * checksum of each output is of the distances' bits, the merges or the
  * medoid ids.
  */
class ClusterKernelBench extends AnyFunSuite {

  private def kernel[A](metric: String, n: Int)(body: => A)(checksum: A => Int): Unit =
    KernelTiming.time(s"cluster_cloud_$n", metric, "ms")(body)(out => f"${checksum(out)}%08x")

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
