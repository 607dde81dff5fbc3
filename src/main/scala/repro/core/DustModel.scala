package repro.core

import repro.data.FineTuneData.FtPair
import repro.embed.HashLm
import repro.util.{Par, Rng, VecOps}

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
  import DustModel.{forward, Hidden, Out}

  /** Forward pass from base features. */
  private def embedFeatures(x: Array[Double]): Array[Double] = {
    val e = new Array[Double](Out)
    forward(w1, w2, x, new Array[Double](Hidden), e)
    e
  }

  /** Embed tuples given as (header, value) pairs, in order, as one batch
    * call: in parallel through one token table (`HashLm.batch`).
    */
  def embedAll(tuples: Seq[Seq[(String, String)]]): Vector[Array[Double]] =
    base.mapAll(tuples)(embedFeatures)

  /** [[embedAll]] of one tuple: a batch of one (dustbench's traced mode calls it). */
  def embed(pairs: Seq[(String, String)]): Array[Double] = embedAll(Vector(pairs)).head
}

object DustModel {

  /** `r(k) = w(k) · x` for every row k, each sum taken from 0.0 in index
    * order, so that every entry has the bits of `VecOps.dot(w(k), x)`. Four
    * rows share one pass over `x` and keep four independent add chains in
    * flight, where one dot per row waits on one. The row count must be a
    * multiple of 4, as the head's widths are.
    */
  private def matVec(w: Array[Array[Double]], x: Array[Double], r: Array[Double]): Unit = {
    require(x.length == w(0).length, s"dim mismatch ${w(0).length} vs ${x.length}")
    var k = 0
    while (k < w.length) {
      val a = w(k); val b = w(k + 1); val c = w(k + 2); val d = w(k + 3)
      var sa = 0.0; var sb = 0.0; var sc = 0.0; var sd = 0.0
      var i = 0
      while (i < x.length) {
        val xi = x(i)
        sa += a(i) * xi; sb += b(i) * xi; sc += c(i) * xi; sd += d(i) * xi
        i += 1
      }
      r(k) = sa; r(k + 1) = sb; r(k + 2) = sc; r(k + 3) = sd
      k += 4
    }
  }

  /** The head's forward pass, into caller-owned buffers: `h = tanh(W1 x)`,
    * `e = W2 h`. Training, validation and [[DustModel.embedAll]] all run it.
    */
  private def forward(w1: Array[Array[Double]], w2: Array[Array[Double]],
                      x: Array[Double], h: Array[Double], e: Array[Double]): Unit = {
    matVec(w1, x, h)
    var j = 0
    while (j < h.length) { h(j) = math.tanh(h(j)); j += 1 }
    matVec(w2, h, e)
  }

  /** The head's shape and SGD settings, the same for every trained model. */
  private val Hidden = 64 // Hidden and Out are multiples of 4 (matVec)
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

  /** Fine-tune over featurized pairs. Each element: (x1, x2, label).
    *
    * The SGD step allocates nothing per pair, and its result is fixed to the
    * bit by the operations below and their order (DESIGN.md §6, fine-tuning):
    * each dot product sums in index order; both tuples' gradients come from
    * the pair's embeddings before any update; W2 takes x1's step, then x2's,
    * element by element; and W1 takes `(w − c1·x1) − c2·x2`. Validation
    * computes each pair's loss on all cores and adds them in pair order.
    */
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

    def pairLoss(e1: Array[Double], e2: Array[Double], label: Int): Double = {
      val c = VecOps.cosineSim(e1, e2)
      if (label == 1) 1.0 - c else math.max(0.0, c)
    }

    def datasetLoss(ps: IndexedSeq[(Array[Double], Array[Double], Int)]): Double =
      if (ps.isEmpty) 0.0
      else {
        val losses = Par.tabulate(ps.size) { p =>
          val (xa, xb, l) = ps(p)
          val h = new Array[Double](Hidden); val ea = new Array[Double](Out); val eb = new Array[Double](Out)
          forward(w1, w2, xa, h, ea); forward(w1, w2, xb, h, eb)
          pairLoss(ea, eb, l)
        }
        var s = 0.0; var p = 0
        while (p < losses.length) { s += losses(p); p += 1 }
        s / ps.size
      }

    // The SGD step's buffers: both tuples' dropped-out inputs, activations,
    // embeddings, and the loss gradients at e and at h.
    val x1 = new Array[Double](dIn); val x2 = new Array[Double](dIn)
    val h1 = new Array[Double](Hidden); val h2 = new Array[Double](Hidden)
    val e1 = new Array[Double](Out); val e2 = new Array[Double](Out)
    val g1 = new Array[Double](Out); val g2 = new Array[Double](Out)
    val gH1 = new Array[Double](Hidden); val gH2 = new Array[Double](Hidden)

    def dropout(x: Array[Double], out: Array[Double]): Unit = {
      var i = 0
      while (i < x.length) { out(i) = if (rng.nextDouble() < Dropout) 0.0 else x(i) / (1.0 - Dropout); i += 1 }
    }

    /** ∂cos(u,v)/∂u into `g`, with the sign for the loss already applied;
      * `nu`, `nv` are the norms and `c` the cosine.
      */
    def dLossDu(u: Array[Double], nu: Double, v: Array[Double], nv: Double,
                c: Double, sign: Double, g: Array[Double]): Unit = {
      var i = 0
      while (i < u.length) { g(i) = sign * (v(i) / (nu * nv) - c * u(i) / (nu * nu)); i += 1 }
    }

    /** The step on both tuples from `g1` and `g2`: through W2 (x1's update,
      * then x2's, per weight), through tanh, then one fused W1 update.
      */
    def backprop(): Unit = {
      java.util.Arrays.fill(gH1, 0.0); java.util.Arrays.fill(gH2, 0.0)
      var o = 0
      while (o < Out) {
        val row = w2(o); val g1o = g1(o); val g2o = g2(o); val c1 = Lr * g1o; val c2 = Lr * g2o
        var j = 0
        while (j < Hidden) {
          gH1(j) += row(j) * g1o; row(j) -= c1 * h1(j)
          gH2(j) += row(j) * g2o; row(j) -= c2 * h2(j)
          j += 1
        }
        o += 1
      }
      var j = 0
      while (j < Hidden) {
        val c1 = Lr * (gH1(j) * (1.0 - h1(j) * h1(j)))
        val c2 = Lr * (gH2(j) * (1.0 - h2(j) * h2(j)))
        val row = w1(j)
        var i = 0
        while (i < dIn) { row(i) = row(i) - c1 * x1(i) - c2 * x2(i); i += 1 }
        j += 1
      }
    }

    var bestVal = Double.MaxValue
    var bestW1 = w1.map(_.clone()); var bestW2 = w2.map(_.clone())
    var sincePatience = 0
    var epoch = 0
    var converged = false
    while (epoch < cfg.maxEpochs && !converged) {
      val order = rng.permutation(train.size)
      var p = 0
      while (p < order.length) {
        val (x1r, x2r, label) = train(order(p))
        dropout(x1r, x1); dropout(x2r, x2)
        forward(w1, w2, x1, h1, e1); forward(w1, w2, x2, h2, e2)
        // cos(e1, e2) = cos(e2, e1) to the bit, so the loss is active for
        // both tuples or for neither (zero embedding, or inactive hinge).
        val n1 = VecOps.norm(e1); val n2 = VecOps.norm(e2)
        if (!(n1 < 1e-12 || n2 < 1e-12)) {
          val c = VecOps.dot(e1, e2) / (n1 * n2)
          if (!(label == 0 && c <= 0.0)) {
            val sign = if (label == 1) -1.0 else 1.0
            dLossDu(e1, n1, e2, n2, c, sign, g1); dLossDu(e2, n2, e1, n1, c, sign, g2)
            backprop()
          }
        }
        p += 1
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
