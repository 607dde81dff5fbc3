package repro

import java.lang.Double.doubleToRawLongBits
import java.util.concurrent.{Callable, CountDownLatch, ForkJoinPool, ForkJoinWorkerThread}
import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.Hac
import repro.core.{ColumnAlignment, DiversifyTuples, Dust, OuterUnion}
import repro.core.DiversifyTuples.EmbTuple
import repro.data.{Generators, Tokenizer}
import repro.embed.{ColumnEmbedders, HashLm, TfIdf}
import repro.exp.{Benchmarks, Models, Table1Experiment}
import repro.util.{Par, Rng, VecOps}

/** The parallel sites (`HashLm.batch` in tuple and column embedding, the
  * TF-IDF fit and the distance matrix, plus the medoids read from that
  * matrix) must give the same bits on one worker as on eight, and the bits
  * of a serial, element-by-element reference. A parallel stream started on
  * a ForkJoinPool worker runs in that worker's pool, so each site is run
  * inside `new ForkJoinPool(1)` and `new ForkJoinPool(8)`.
  */
class ParallelDeterminismSpec extends AnyFunSuite {
  private lazy val model = Models.dustRoberta

  private def inPool[A](threads: Int)(body: => A): A = {
    val pool = new ForkJoinPool(threads)
    try pool.submit(new Callable[A] { def call(): A = body }).get()
    finally pool.shutdown()
  }

  /** `body` on one worker and on eight; both results. */
  private def onePoolAndEight[A](body: => A): Seq[(Int, A)] = Seq(1, 8).map(n => n -> inPool(n)(body))

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(i => doubleToRawLongBits(a(i)) == doubleToRawLongBits(b(i)))

  private def sameBits(a: Seq[Array[Double]], b: Seq[Array[Double]]): Boolean =
    a.size == b.size && a.zip(b).forall { case (x, y) => sameBits(x, y) }

  test("Par.tabulate runs in the caller's pool and fills every slot in index order") {
    onePoolAndEight {
      val pool = Thread.currentThread.asInstanceOf[ForkJoinWorkerThread].getPool
      (pool, Par.tabulate(1000)(i => (i, Thread.currentThread)))
    }.foreach { case (n, (pool, out)) =>
      assert(out.map(_._1).toSeq == (0 until 1000), s"pool($n)")
      assert(out.forall { case (_, t) => t.isInstanceOf[ForkJoinWorkerThread] &&
        (t.asInstanceOf[ForkJoinWorkerThread].getPool eq pool) }, s"pool($n) ran work elsewhere")
    }
    assert(Par.tabulate(0)(_ => 1).isEmpty)
  }

  test("DustModel.embedAll equals embed per tuple on 1 and 8 workers") {
    val big = Generators.generate(Generators.santosLiteConfig.copy(
      nBases = 2, rowsPerBase = 1000, tablesPerBase = 8, nQueries = 2))
    val q = big.queries.head
    val tables = big.unionableFor(q)
    val tfidf = TfIdf.fit(big.lake ++ big.queries)
    val aligned = ColumnAlignment.alignHolistic(q, tables, ColumnEmbedders.dustDefault, tfidf)
    val tuples = OuterUnion.union(q, tables, aligned) ++ OuterUnion.queryTuples(q)
    assert(tuples.size >= 2000)
    val reference = tuples.map(t => model.embed(t.pairs))
    onePoolAndEight(model.embedAll(tuples.map(_.pairs))).foreach { case (n, embs) =>
      assert(sameBits(embs, reference), s"pool($n)")
    }
  }

  test("embedAll on repeated and permuted tuples equals embed per tuple on 1 and 8 workers") {
    val b = Generators.ugenLite
    val q = b.queries.head
    val base = (OuterUnion.queryTuples(q) ++ b.unionableFor(q).flatMap(OuterUnion.queryTuples)).map(_.pairs).take(200)
    val rng = new Rng(41)
    val copies = Vector.fill(120)(base(rng.nextInt(base.size)))
    // A tuple whose pairs, reversed, pool to other bits: a copy by multiset
    // that is not a copy by sequence.
    val permuted = base.find(p => p.size >= 3 && !sameBits(model.embed(p.reverse), model.embed(p))).get.reverse
    val batch = rng.shuffle(base ++ copies) :+ permuted
    assert(batch.size - batch.distinct.size >= 0.3 * batch.size)
    val reference = batch.map(model.embed)
    onePoolAndEight(model.embedAll(batch)).foreach { case (n, embs) =>
      assert(sameBits(embs, reference), s"pool($n)")
    }
  }

  test("embedAll equals one table at a time on one worker for every Table 1 embedder") {
    val b = Generators.santosLite
    val tables = b.lake ++ b.queries
    val tfidf = Benchmarks.tfidfFor(b)
    Table1Experiment.methods.map(_.embedder).distinct.foreach { emb =>
      val reference = inPool(1)(tables.map(t => emb.embedAll(Vector(t), tfidf).head))
      onePoolAndEight(emb.embedAll(tables, tfidf)).foreach { case (n, embs) =>
        assert(embs.size == tables.size)
        tables.indices.foreach(i => assert(sameBits(embs(i), reference(i)), s"${emb.name} pool($n) ${tables(i).name}"))
      }
    }
    // Column-level pooling written out serially, column by column, from
    // the model's token vectors.
    val lm = HashLm.roberta
    val serial = tables.map { t =>
      (0 until t.nCols).map { j =>
        val top = tfidf.topTokens(t.columnValues(j))
        if (top.isEmpty) new Array[Double](HashLm.Dim)
        else VecOps.normalize(VecOps.weightedMean(top.map(w => lm.tokenVec(w._1)), top.map(_._2)))
      }
    }
    onePoolAndEight(ColumnEmbedders.dustDefault.embedAll(tables, tfidf)).foreach { case (n, embs) =>
      tables.indices.foreach(i => assert(sameBits(embs(i), serial(i)), s"pool($n) ${tables(i).name}"))
    }
  }

  test("distMatrix equals the serial double loop for n in {0, 1, 2, 600}") {
    val rng = new Rng(31)
    val protos = Vector.fill(40)(Array.fill(32)(rng.nextGaussian()))
    for (n <- Seq(0, 1, 2, 600)) {
      // Every fifteenth point repeats a prototype, so exact ties are present.
      val pts = (0 until n).map(i => if (i % 15 == 0) protos(i / 15 % 40) else Array.fill(32)(rng.nextGaussian()))
      val reference = Array.ofDim[Double](n, n)
      for (i <- 0 until n; j <- i + 1 until n) {
        val v = VecOps.cosineDist(pts(i), pts(j)); reference(i)(j) = v; reference(j)(i) = v
      }
      onePoolAndEight(Hac.distMatrix(pts, VecOps.cosineDist)).foreach { case (p, d) =>
        assert(d.n == n, s"n=$n pool($p)")
        // Every d(i, j) and d(j, i) and the diagonal, read through the store.
        assert((0 until n).forall(i => sameBits(Array.tabulate(n)(d(i, _)), reference(i))), s"n=$n pool($p)")
      }
    }
  }

  test("clusterMedoids equals UPGMA on a serial matrix plus VecOps.medoidIndex on tie-heavy input") {
    // DiversifyTuplesSpec's tie-heavy input: ten exact-duplicate vectors,
    // each copied four times into each of three tables.
    val rng = new Rng(17)
    val protos = Vector.fill(10)(Array.fill(8)(rng.nextGaussian()))
    val tieHeavy = (0 until 120).toVector.map(i => EmbTuple(i.toLong, s"t${i % 3}", protos(i / 3 % 10)))
    val generic = (0 until 300).toVector.map(i => EmbTuple(i.toLong, s"t${i % 4}", Array.fill(8)(rng.nextGaussian())))
    for ((cands, nClusters) <- Seq((tieHeavy, 5), (tieHeavy, 12), (tieHeavy, 40), (generic, 60), (generic, 300))) {
      val vecs = cands.map(_.vec)
      val d = inPool(1)(Hac.distMatrix(vecs, VecOps.cosineDist))
      val labels = Hac.upgma(d).cut(math.min(nClusters, cands.size))
      val reference = cands.indices.groupBy(labels(_)).toVector.sortBy(_._1).map { case (_, members) =>
        cands(members(VecOps.medoidIndex(members.map(vecs(_)), VecOps.cosineDist))).id
      }
      onePoolAndEight(DiversifyTuples.clusterMedoids(cands, nClusters)).foreach { case (n, ms) =>
        assert(ms.map(_.id) == reference, s"n=${cands.size} k=$nClusters pool($n)")
      }
    }
  }

  test("TfIdf.fit gives the serial document-frequency IDF on 1 and 8 workers") {
    val b = Generators.ugenLite
    val tables = b.lake ++ b.queries
    val docs = tables.flatMap(t => t.cols.indices.map(j => Tokenizer.columnTokens(t.columnValues(j)).toSet))
    val df = docs.flatten.groupBy(identity).view.mapValues(_.size).toMap
    val n = docs.size
    onePoolAndEight(TfIdf.fit(tables)).foreach { case (p, tfidf) =>
      df.foreach { case (tok, d) =>
        assert(doubleToRawLongBits(tfidf.idfOf(tok)) == doubleToRawLongBits(math.log(1.0 + n.toDouble / d)),
          s"pool($p) $tok")
      }
      assert(tfidf.idfOf("\u0000unseen") == math.log(1.0 + n.toDouble))
    }
  }

  test("one token table shared by 8 threads returns tokenVec's vectors") {
    val lm = HashLm.fastText
    val tokens = (0 until 400).map(i => s"t${i % 7}c${i % 5}v$i")
    val start = new CountDownLatch(1)
    val results = new Array[Seq[(String, Array[Double])]](8)
    lm.batch(1) { (table, _) =>
      val threads = (0 until 8).map { w =>
        new Thread(() => {
          start.await()
          // Overlapping windows, in a different order on each thread.
          val mine = tokens.drop(w * 40).take(120) ++ tokens.take(80).reverse
          results(w) = mine.map(tok => tok -> table.embedTokens(Seq(tok)))
        })
      }
      threads.foreach(_.start())
      start.countDown()
      threads.foreach(_.join())
    }
    results.foreach { rs =>
      assert(rs.size == 200)
      rs.foreach { case (tok, v) => assert(sameBits(v, VecOps.normalize(lm.tokenVec(tok))), tok) }
    }
  }

  test("Dust.run selects the same ids on 1 and 8 workers") {
    for (b <- Seq(Generators.santosLite, Generators.ugenLite); q <- b.queries.take(2)) {
      val cfg = Dust.Config(k = 10, s = Benchmarks.pruneS)
      val Seq((_, one), (_, eight)) = onePoolAndEight(Dust.run(q, b, model, cfg))
      assert(eight.selected.map(_.id) == one.selected.map(_.id), s"${b.name}/${q.name}")
      assert(eight.tables.map(_.name) == one.tables.map(_.name), s"${b.name}/${q.name}")
      assert(sameBits(eight.queryEmb, one.queryEmb), s"${b.name}/${q.name}")
    }
  }
}
