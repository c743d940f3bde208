package repro.core

import repro.gnn.GeniePathEncoder
import repro.linkpred._
import repro.nn._
import repro.world.EntityWorld
import scala.util.Random

/** ALPC — Adaptive-threshold Link Prediction with Contrastive learning
  * (paper §III-B2), the ranking-stage model of TRMP.
  *
  * GeniePath encoder over the candidate graph with `[e^Se, e^Co]` features,
  * three joint objectives:
  *   - `L_pred`: BCE over the pair-scoring MLP `g([z_u ‖ z_v])` (eq. 2);
  *   - `L_th`:   per-source adaptive threshold ε_u = MLP(z_u), BCE on
  *               σ(s_uv − ε_u) (eq. 3), with the same s_uv as `L_pred` over
  *               the class-balanced prefix of the training pairs;
  *   - `L_cl`:   InfoNCE over semantic anchor pairs ⟨e, e⁺⟩ with in-batch
  *               negatives (eq. 4);
  * total `L = L_pred + α·L_th + β·L_cl` with α = β = 1 (eq. 5), so the
  * three terms are added unweighted.
  *
  * The ablations of Table II are flags: `useThreshold=false` → ALPC_th-,
  * `useContrastive=false` → ALPC_cl-.
  */
final case class AlpcConfig(
    dim: Int = 32,
    layers: Int = 2,
    k: Int = 8,
    epochs: Int = 40,
    useThreshold: Boolean = true,
    useContrastive: Boolean = true,
    seed: Long = 97L,
)

object Alpc {

  /** InfoNCE temperature of `L_cl` (eq. 4). */
  private val Tau = 0.2

  /** semantic-cosine cut for forming ⟨e, e⁺⟩ anchor pairs */
  private val SemAnchorThreshold = 0.80

  /** Anchor pairs drawn per epoch for `L_cl`'s in-batch negatives. */
  private val ContrastBatch = 128

  /** logit-units margin for relation acceptance: keep iff s_uv − ε_u >
    * margin. The paper's threshold task is explicitly trained to "enlarge
    * the margin between prediction score s and threshold ε"; the published
    * graph keeps only relations clearing it. The ensemble accepts by the
    * same margin on its logit.
    */
  val AcceptMargin = 0.75
}

/** The fitted model: frozen embeddings + heads. `score` is σ(s_uv) (AUC
  * metric); `acceptAdaptive` applies the per-source threshold (relation
  * truncation, the thing ACC measures).
  *
  * The pair head additionally sees the structural descriptors of the pair on
  * the train graph (CN/AA/Jaccard/PA): neighbourhood-overlap evidence is what
  * separates spurious candidate edges from real relations, and at our graph
  * sizes the GNN cannot reliably learn it from edge labels alone.
  */
final class AlpcScorer(val z: Tensor, head: Mlp, thHead: Option[Mlp],
                       structF: (Int, Int) => Array[Double]) extends LinkScorer {
  private val pairHead = new GnnTraining.PairHeadScorer(Some(z), head, Some(structF))

  def logits(pairs: Array[(Int, Int)]): Array[Double] = pairHead.logits(pairs)

  /** The learned per-source-entity thresholds ε_u (0 when the head is off). */
  def thresholdOf(us: Array[Int]): Array[Double] = thHead match {
    case Some(mlp) =>
      implicit val tape: Tape = new Tape
      mlp.forward(Ad.gatherRows(Ad.const(z), us)).v.data
    case None => new Array[Double](us.length)
  }

  def thresholdOf(u: Int): Double = thresholdOf(Array(u))(0)

  /** Paper's truncation rule with margin: keep (u,v) iff s_uv − ε_u > margin. */
  def acceptAdaptive(pairs: Array[(Int, Int)]): Array[Boolean] = {
    val s = logits(pairs)
    val eps = thresholdOf(pairs.map(_._1))
    Array.tabulate(pairs.length)(i => s(i) - eps(i) > Alpc.AcceptMargin)
  }

  def acceptAdaptive(u: Int, v: Int): Boolean = acceptAdaptive(Array((u, v)))(0)
}

final class Alpc(cfg: AlpcConfig = AlpcConfig()) extends LinkPredictor {
  import Alpc._

  val name: String =
    if (!cfg.useThreshold) "ALPC_th-" else if (!cfg.useContrastive) "ALPC_cl-" else "ALPC"

  /** Anchor pairs ⟨e, e⁺⟩: correlated (train-graph) pairs whose semantic
    * similarity clears the threshold; falls back to the top decile if the
    * absolute cut is too strict for the dataset.
    */
  private[core] def semanticAnchors(data: LinkPredData): Array[(Int, Int)] = {
    val withSim = data.trainPos.map { case (u, v) =>
      (u, v, EntityWorld.cosine(data.featSe(u), data.featSe(v)))
    }
    val strict = withSim.filter(_._3 >= SemAnchorThreshold)
    val chosen =
      if (strict.length >= ContrastBatch) strict
      else withSim.sortBy(-_._3).take(math.max(ContrastBatch, withSim.length / 10))
    chosen.map { case (u, v, _) => (u, v) }
  }

  def fit(data: LinkPredData): AlpcScorer = {
    val rng = new Random(cfg.seed)
    val enc = new GeniePathEncoder(data.features.head.length, cfg.dim, cfg.layers, cfg.k, rng)
    val sf = GnnTraining.structFeatures(data.trainGraph) _
    val head = new Mlp(Seq(GnnTraining.pairInputDim(enc.outDim) + 4, cfg.dim, 1), rng, "alpc.head")
    val thHead = new Mlp(Seq(enc.outDim, cfg.dim / 2, 1), rng, "alpc.th")

    val us = data.trainPairs.map(_._1)
    val vs = data.trainPairs.map(_._2)
    val labels = data.trainLabels
    val anchors = if (cfg.useContrastive) semanticAnchors(data) else Array.empty[(Int, Int)]

    // The threshold task sees a class-BALANCED pair set: with the 1:3
    // train ratio the negatives' gradient dominates and pushes every ε_u
    // above most true relations' scores — the truncated graph collapses.
    // ε is supposed to sit between each source's positive and negative
    // score modes (paper Fig. 5a), which balanced supervision gives. It is a
    // prefix of the training pairs, so L_th reads their s_uv from `s`.
    val balanced = Array.range(0, data.balancedCount)
    val thUs = us.take(balanced.length)
    val thLabels = labels.take(balanced.length)

    val structTrain = Some(GnnTraining.featureRows(sf, data.trainPairs))

    // the inference embedding averages three stochastic forwards so the
    // frozen z is not hostage to one neighbour sample (absolute cuts like ε
    // are sensitive to that shift even though rankings are not)
    val z = GnnTraining.fitEncoder(enc, head.params ++ (if (cfg.useThreshold) thHead.params else Seq.empty),
        data, cfg.epochs, cfg.seed, inferenceSamples = 3) { (z, epochRng) => implicit tape =>
      val s = head.forward(GnnTraining.headInput(Some(z), us, vs, structTrain))
      var loss = Ad.bceWithLogits(s, labels)

      if (cfg.useThreshold) {
        val sTh = Ad.gatherRows(s, balanced)
        val eps = thHead.forward(Ad.gatherRows(z, thUs))
        val lTh = Ad.bceWithLogits(Ad.sub(sTh, eps), thLabels)
        loss = Ad.add(loss, lTh)
      }

      if (cfg.useContrastive && anchors.nonEmpty) {
        val batch = Array.fill(math.min(ContrastBatch, anchors.length)) {
          anchors(epochRng.nextInt(anchors.length))
        }
        val za = Ad.gatherRows(z, batch.map(_._1))
        val zp = Ad.gatherRows(z, batch.map(_._2))
        val logits = Ad.scale(Ad.matmul(za, Ad.transpose(zp)), 1.0 / Tau)
        loss = Ad.add(loss, Ad.infoNceDiag(logits))
      }
      loss
    }
    new AlpcScorer(z, head, if (cfg.useThreshold) Some(thHead) else None, sf)
  }
}
