package repro.core

import repro.data.FineTuneData.FtPair
import repro.embed.HashLm
import repro.util.{Rng, VecOps}

/** The DUST tuple representation model (§4): a fine-tuned head on top of the
  * base transformer features — dropout, then two linear layers (tanh between)
  * — trained with the cosine embedding loss
  *
  *   L(e1, e2) = 1 − cos(e1, e2)        if label = 1
  *               max(0, cos(e1, e2))    if label = 0
  *
  * by plain SGD with early stopping on validation loss (patience as in
  * §6.3.3). Both tuples of a pair share weights (Siamese, Fig 3).
  */
final class DustModel(
    val base: TupleFeaturizer,
    w1: Array[Array[Double]], // hidden x in
    w2: Array[Array[Double]], // out x hidden
) {
  import DustModel.matVec

  /** Forward pass from base features. */
  private def embedFeatures(x: Array[Double]): Array[Double] =
    matVec(w2, matVec(w1, x).map(math.tanh))

  /** Embed tuples given as (header, value) pairs, in order, as one batch
    * call: in parallel through one token table (`HashLm.batch`).
    */
  def embedAll(tuples: Seq[Seq[(String, String)]]): Vector[Array[Double]] =
    base.mapAll(tuples)(embedFeatures)

  /** [[embedAll]] of one tuple: a batch of one (dustbench's traced mode calls it). */
  def embed(pairs: Seq[(String, String)]): Array[Double] = embedAll(Vector(pairs)).head
}

object DustModel {

  private def matVec(w: Array[Array[Double]], x: Array[Double]): Array[Double] = {
    val r = new Array[Double](w.length)
    var i = 0
    while (i < w.length) { r(i) = VecOps.dot(w(i), x); i += 1 }
    r
  }

  /** The head's shape and SGD settings, the same for every trained model. */
  private val Hidden = 64
  val Out = 32
  private val Lr = 0.05
  private val Dropout = 0.1

  final case class TrainConfig(
      maxEpochs: Int = 60,
      patience: Int = 10,
      seed: Long = 42,
  )

  final case class TrainStats(epochsRun: Int, bestValLoss: Double, converged: Boolean)

  /** Unionability prediction rule used throughout Fig 6 (§6.3.1):
    * unionable ⟺ cosine distance < threshold (0.7).
    */
  val Threshold = 0.7

  def predictUnionable(e1: Array[Double], e2: Array[Double]): Boolean =
    VecOps.cosineDist(e1, e2) < Threshold

  /** Classification accuracy of an arbitrary embedder over labeled pairs.
    * `embedAll` embeds a batch of tuples, in order (`DustModel.embedAll`,
    * `TupleFeaturizer.featuresAll`); every pair's two tuples go in one batch.
    */
  def accuracy(embedAll: Seq[Seq[(String, String)]] => Seq[Array[Double]], pairs: Seq[FtPair]): Double = {
    require(pairs.nonEmpty, "empty evaluation set")
    val es = embedAll(pairs.flatMap(p => Seq(p.t1, p.t2))).toIndexedSeq
    val correct = pairs.indices.count { i =>
      predictUnionable(es(2 * i), es(2 * i + 1)) == (pairs(i).label == 1)
    }
    correct.toDouble / pairs.size
  }

  /** Fine-tune over featurized pairs. Each element: (x1, x2, label). */
  def finetune(
      base: TupleFeaturizer,
      train: IndexedSeq[(Array[Double], Array[Double], Int)],
      validation: IndexedSeq[(Array[Double], Array[Double], Int)],
      cfg: TrainConfig = TrainConfig(),
  ): (DustModel, TrainStats) = {
    require(train.nonEmpty, "empty training set")
    val dIn = HashLm.Dim
    val rng = new Rng(cfg.seed)
    def initMat(rows: Int, colsN: Int): Array[Array[Double]] =
      Array.fill(rows)(Array.fill(colsN)(rng.nextGaussian() / math.sqrt(colsN)))

    val w1 = initMat(Hidden, dIn)
    val w2 = initMat(Out, Hidden)

    /** Forward with cached activations: (h = tanh(W1 x), e = W2 h). */
    def forward(x: Array[Double]): (Array[Double], Array[Double]) = {
      val h = matVec(w1, x).map(math.tanh)
      (h, matVec(w2, h))
    }

    def pairLoss(e1: Array[Double], e2: Array[Double], label: Int): Double = {
      val c = VecOps.cosineSim(e1, e2)
      if (label == 1) 1.0 - c else math.max(0.0, c)
    }

    def datasetLoss(ps: IndexedSeq[(Array[Double], Array[Double], Int)]): Double =
      if (ps.isEmpty) 0.0
      else ps.iterator.map { case (x1, x2, l) =>
        pairLoss(forward(x1)._2, forward(x2)._2, l)
      }.sum / ps.size

    /** ∂cos(u,v)/∂u, with the sign for the loss already applied. */
    def dLossDu(u: Array[Double], v: Array[Double], label: Int): Option[Array[Double]] = {
      val nu = VecOps.norm(u); val nv = VecOps.norm(v)
      if (nu < 1e-12 || nv < 1e-12) return None
      val c = VecOps.dot(u, v) / (nu * nv)
      if (label == 0 && c <= 0.0) return None // hinge inactive
      val sign = if (label == 1) -1.0 else 1.0
      val g = new Array[Double](u.length)
      var i = 0
      while (i < u.length) {
        g(i) = sign * (v(i) / (nu * nv) - c * u(i) / (nu * nu))
        i += 1
      }
      Some(g)
    }

    /** Accumulate SGD step for one tuple of the pair. */
    def backprop(x: Array[Double], h: Array[Double], gE: Array[Double]): Unit = {
      // W2 update and dL/dh.
      val gH = new Array[Double](Hidden)
      var o = 0
      while (o < Out) {
        val row = w2(o); val g = gE(o)
        var j = 0
        while (j < Hidden) { gH(j) += row(j) * g; row(j) -= Lr * g * h(j); j += 1 }
        o += 1
      }
      // Through tanh, then W1 update.
      var j = 0
      while (j < Hidden) {
        val ga = gH(j) * (1.0 - h(j) * h(j))
        val row = w1(j)
        var i = 0
        while (i < dIn) { row(i) -= Lr * ga * x(i); i += 1 }
        j += 1
      }
    }

    def dropoutMask(x: Array[Double]): Array[Double] =
      x.map(v => if (rng.nextDouble() < Dropout) 0.0 else v / (1.0 - Dropout))

    var bestVal = Double.MaxValue
    var bestW1 = w1.map(_.clone()); var bestW2 = w2.map(_.clone())
    var sincePatience = 0
    var epoch = 0
    var converged = false
    while (epoch < cfg.maxEpochs && !converged) {
      rng.shuffle(train.indices.toVector).foreach { idx =>
        val (x1r, x2r, label) = train(idx)
        val x1 = dropoutMask(x1r); val x2 = dropoutMask(x2r)
        val (h1, e1) = forward(x1)
        val (h2, e2) = forward(x2)
        dLossDu(e1, e2, label).foreach(g => backprop(x1, h1, g))
        dLossDu(e2, e1, label).foreach(g => backprop(x2, h2, g))
      }
      val vl = datasetLoss(if (validation.nonEmpty) validation else train)
      if (vl < bestVal - 1e-6) {
        bestVal = vl
        bestW1 = w1.map(_.clone()); bestW2 = w2.map(_.clone())
        sincePatience = 0
      } else {
        sincePatience += 1
        if (sincePatience >= cfg.patience) converged = true
      }
      epoch += 1
    }
    (new DustModel(base, bestW1, bestW2), TrainStats(epoch, bestVal, converged))
  }

  /** Featurize labeled [[FtPair]]s once, then fine-tune. */
  def finetuneOnPairs(
      base: TupleFeaturizer,
      train: Seq[FtPair],
      validation: Seq[FtPair],
      cfg: TrainConfig = TrainConfig(),
  ): (DustModel, TrainStats) = {
    def feat(ps: Seq[FtPair]) = {
      val xs = base.featuresAll(ps.flatMap(p => Seq(p.t1, p.t2)))
      ps.indices.map(i => (xs(2 * i), xs(2 * i + 1), ps(i).label))
    }
    finetune(base, feat(train), feat(validation), cfg)
  }
}
