package repro.linkpred

import repro.gnn._
import repro.graph.EntityGraph
import repro.nn._
import repro.world.EntityWorld
import scala.util.Random

/** Shared machinery of every neural link predictor (the GNN Table II
  * baselines, ALPC and the ensemble): the pair-head input and its batched
  * scorer, and the one full-batch Adam training loop.
  */
object GnnTraining {

  /** The Adam learning rate of every neural link predictor, ALPC and the
    * ensemble included.
    */
  private val LearningRate = 2e-2

  /** Pair-head input [z_u ‖ z_v ‖ z_u∘z_v]: the element-wise interaction term
    * lets the scoring MLP express similarity directly instead of having to
    * learn it from the raw concat — essential for convergence at our epoch
    * budgets. Still the "neural network g(·)" of the paper's eq. 2.
    */
  def pairInput(z: Node, us: Array[Int], vs: Array[Int])(implicit t: Tape): Node = {
    val zu = Ad.gatherRows(z, us)
    val zv = Ad.gatherRows(z, vs)
    Ad.concatCols(Ad.concatCols(zu, zv), Ad.hadamard(zu, zv))
  }

  /** Width of `pairInput` given embedding width `d`. */
  def pairInputDim(d: Int): Int = 3 * d

  /** Head input [pairInput(z) ‖ pair features]; either part may be absent. */
  def headInput(z: Option[Node], us: Array[Int], vs: Array[Int], features: Option[Tensor])
               (implicit t: Tape): Node =
    (z.map(pairInput(_, us, vs)) ++ features.map(Ad.const(_))).reduceLeft(Ad.concatCols(_, _))

  /** One row of `f(u, v)` per pair. */
  def featureRows(f: (Int, Int) => Array[Double], pairs: Array[(Int, Int)]): Tensor =
    Tensor.fromRows(pairs.toIndexedSeq.map { case (u, v) => f(u, v) })

  /** Scores pairs through a trained MLP head over
    * [pairInput(z) ‖ pairFeatures(u, v)], one forward per batch.
    */
  final class PairHeadScorer(z: Option[Tensor], head: Mlp,
                             pairFeatures: Option[(Int, Int) => Array[Double]]) extends LinkScorer {
    def logits(pairs: Array[(Int, Int)]): Array[Double] =
      if (pairs.isEmpty) Array.emptyDoubleArray
      else {
        implicit val tape: Tape = new Tape
        head.forward(headInput(z.map(Ad.const(_)), pairs.map(_._1), pairs.map(_._2),
          pairFeatures.map(featureRows(_, pairs)))).v.data
      }
  }

  /** log1p-squashed structural features of a pair on the train graph. */
  def structFeatures(g: EntityGraph)(u: Int, v: Int): Array[Double] = Array(
    math.log1p(g.commonNeighbors(u, v).toDouble),
    math.log1p(g.adamicAdar(u, v)),
    g.jaccard(u, v),
    math.log1p(g.degree(u).toDouble * g.degree(v)),
  )

  /** The training loop: every epoch records `loss(epoch)` on a fresh tape,
    * then zeroGrad → backward → Adam step. Adam clips by the global gradient
    * norm, summed over `params` in the order given.
    */
  def train(params: Seq[Param], epochs: Int)(loss: Int => Tape => Node): Unit = {
    val opt = new Adam(params, LearningRate)
    var e = 0
    while (e < epochs) {
      val tape = new Tape
      val l = loss(e)(tape)
      opt.zeroGrad(); tape.backward(l); opt.step()
      e += 1
    }
  }

  /** Trains `enc` (plus `headParams`) under `loss(z, epochRng)` on the
    * `[e^Se, e^Co]` features, the encoder sampling neighbours from
    * `Random(seed + epoch)`, and returns the frozen inference embedding: the
    * mean of `inferenceSamples` forwards seeded `seed - 1, seed - 2, …`.
    */
  def fitEncoder(enc: GraphEncoder, headParams: Seq[Param], data: LinkPredData,
                 epochs: Int, seed: Long, inferenceSamples: Int = 1)
                (loss: (Node, Random) => Tape => Node): Tensor = {
    val feats = Tensor.fromRows(data.features.toIndexedSeq)
    train(enc.params ++ headParams, epochs) { e => implicit tape =>
      val epochRng = new Random(seed + e)
      loss(enc.forward(feats, data.trainGraph, epochRng), epochRng)(tape)
    }
    val samples = (1 to inferenceSamples).map { i =>
      enc.forward(feats, data.trainGraph, new Random(seed - i))(new Tape).v
    }
    val acc = samples.head.copy()
    samples.tail.foreach(acc.addInPlace)
    acc.scaleInPlace(1.0 / samples.length)
    acc
  }

  /** Encoder + MLP pair head over [pairInput(z) ‖ pairFeatures], trained with
    * the BCE prediction loss alone (eq. 2).
    */
  def fitPairHead(enc: GraphEncoder, pairFeatures: Option[(Int, Int) => Array[Double]],
                  data: LinkPredData, hidden: Int, epochs: Int, seed: Long,
                  rng: Random, name: String): LinkScorer = {
    val us = data.trainPairs.map(_._1)
    val vs = data.trainPairs.map(_._2)
    val labels = data.trainLabels
    val feats = pairFeatures.map(featureRows(_, data.trainPairs))
    val head = new Mlp(Seq(pairInputDim(enc.outDim) + feats.fold(0)(_.cols), hidden, 1), rng, name)
    val z = fitEncoder(enc, head.params, data, epochs, seed) { (z, _) => implicit tape =>
      Ad.bceWithLogits(head.forward(headInput(Some(z), us, vs, feats)), labels)
    }
    new PairHeadScorer(Some(z), head, pairFeatures)
  }
}

/** GeniePath link predictor — the paper's backbone trained with only the BCE
  * prediction loss (eq. 2); also the encoder ALPC builds on.
  */
final class GeniePathLP(dim: Int = 32, layers: Int = 2, k: Int = 8, epochs: Int = 40) extends LinkPredictor {
  val name = "Geniepath"
  def fit(data: LinkPredData): LinkScorer = {
    val rng = new Random(GeniePathLP.Seed)
    val enc = new GeniePathEncoder(data.features.head.length, dim, layers, k, rng)
    GnnTraining.fitPairHead(enc, None, data, dim, epochs, GeniePathLP.Seed, rng, "gp.head")
  }
}

object GeniePathLP { private val Seed = 71L }

/** VGAE (Kipf & Welling, 2016): graph-conv encoder + inner-product decoder,
  * trained on edge reconstruction. We use the deterministic autoencoder
  * variant (no reparameterisation) — the KL term is irrelevant to ranking at
  * this scale and the decoder/objective are unchanged.
  */
final class Vgae(dim: Int = 32, layers: Int = 2, k: Int = 8, epochs: Int = 40) extends LinkPredictor {
  val name = "VGAE"
  def fit(data: LinkPredData): LinkScorer = {
    val rng = new Random(Vgae.Seed)
    val enc = new MeanSageEncoder(data.features.head.length, dim, layers, k, rng, finalAct = "linear")
    val us = data.trainPairs.map(_._1)
    val vs = data.trainPairs.map(_._2)
    val labels = data.trainLabels
    val z = GnnTraining.fitEncoder(enc, Seq.empty, data, epochs, Vgae.Seed) { (z, _) => implicit tape =>
      Ad.bceWithLogits(Ad.rowDot(Ad.gatherRows(z, us), Ad.gatherRows(z, vs)), labels)
    }
    // the decoder is the raw inner product: an uncalibrated embedding scorer
    new EmbeddingScorer(Array.tabulate(z.rows)(z.row), 1.0, 0.0)
  }
}

object Vgae { private val Seed = 73L }

/** CompGCN (Vashishth et al., 2019) over the two candidate-edge relation
  * types (co-occurrence / semantic), `mult` composition, MLP pair head.
  */
final class CompGcnLP(dim: Int = 32, layers: Int = 2, k: Int = 8, epochs: Int = 40) extends LinkPredictor {
  val name = "CompGCN"
  def fit(data: LinkPredData): LinkScorer = {
    val rng = new Random(CompGcnLP.Seed)
    val enc = new CompGcnEncoder(data.features.head.length, dim, layers, k, nRels = 2, rng)
    GnnTraining.fitPairHead(enc, None, data, dim, epochs, CompGcnLP.Seed, rng, "cgcn.head")
  }
}

object CompGcnLP { private val Seed = 79L }

/** PaGNN (Yang et al., ECML-PKDD 2021) — reduced faithful variant: a sampled
  * GNN encoder plus an *interactive* pair head that sees the element-wise
  * interaction z_u∘z_v and pairwise structural signals (the broadcast/
  * aggregate interaction of the full model collapsed into pair features).
  */
final class PaGnn(dim: Int = 32, layers: Int = 2, k: Int = 8, epochs: Int = 40) extends LinkPredictor {
  val name = "PaGNN"
  def fit(data: LinkPredData): LinkScorer = {
    val rng = new Random(PaGnn.Seed)
    val enc = new MeanSageEncoder(data.features.head.length, dim, layers, k, rng)
    GnnTraining.fitPairHead(enc, Some(GnnTraining.structFeatures(data.trainGraph) _), data,
      dim, epochs, PaGnn.Seed, rng, "pagnn.head")
  }
}

object PaGnn { private val Seed = 83L }

/** SEAL (Zhang & Chen, NeurIPS 2018) — reduced faithful variant: instead of
  * extracting an enclosing subgraph per link and running a DGCNN, we feed the
  * DRNL-motivated structural descriptors of the (1-hop) enclosing subgraph
  * (CN, AA, Jaccard, preferential attachment) together with raw feature
  * similarities to an MLP. Captures SEAL's "structure around the pair"
  * signal at a fraction of the cost.
  */
final class Seal(epochs: Int = 200, seed: Long = 89L) extends LinkPredictor {
  val name = "SEAL"

  private def pairFeatures(data: LinkPredData)(u: Int, v: Int): Array[Double] =
    GnnTraining.structFeatures(data.trainGraph)(u, v) ++ Array(
      EntityWorld.cosine(data.featSe(u), data.featSe(v)),
      EntityWorld.cosine(data.featCo(u), data.featCo(v)),
    )

  def fit(data: LinkPredData): LinkScorer = {
    val rng = new Random(seed)
    val pf = pairFeatures(data) _
    val head = new Mlp(Seq(6, Seal.Hidden, 1), rng, "seal")
    val x = GnnTraining.featureRows(pf, data.trainPairs)
    val labels = data.trainLabels
    GnnTraining.train(head.params, epochs) { _ => implicit tape =>
      Ad.bceWithLogits(head.forward(Ad.const(x)), labels)
    }
    new GnnTraining.PairHeadScorer(None, head, Some(pf))
  }
}

object Seal { private val Hidden = 16 }
