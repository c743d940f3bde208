package repro.core

import repro.linkpred.{GnnTraining, LinkPredData, LinkScorer}
import repro.nn._
import scala.util.Random

/** TRMP Stage III — the ensemble (paper §III-B3).
  *
  * Entity embeddings extracted from several weekly ALPC models are
  * concatenated (eq. 6): the pair sample (u,v) becomes the token sequence
  * [z_u^{t1} … z_u^{tW}, z_v^{t1} … z_v^{tW}], encoded by a multi-head
  * attention encoder, flattened, and classified by an MLP under cross
  * entropy. The fused per-entity embedding h_e (the weekly concat) is what
  * the user-preference module consumes.
  */
final case class EnsembleConfig(epochs: Int = 30, maxTrainPairs: Int = 6000, seed: Long = 101L)

final class EnsembleScorer(weekly: Seq[Tensor], mha: MultiHeadAttention, head: Mlp,
                           tokensPerPair: Int, structF: (Int, Int) => Array[Double]) extends LinkScorer {
  private val dim = weekly.head.cols

  /** Fused embedding h_e: the concatenation of the weekly z_e (eq. 6). */
  def fusedEmbedding(e: Int): Array[Double] = weekly.flatMap(_.row(e)).toArray

  def logits(pairs: Array[(Int, Int)]): Array[Double] =
    if (pairs.isEmpty) Array.emptyDoubleArray
    else {
      implicit val tape: Tape = new Tape
      val x = Ad.const(Ensemble.pairTokens(weekly, pairs))
      head.forward(Ensemble.headInput(mha, x, pairs.length, tokensPerPair, dim,
        GnnTraining.featureRows(structF, pairs))).v.data
    }

  private def keeps(logit: Double): Boolean = logit > Alpc.AcceptMargin

  /** Keep (u,v) iff its logit clears ALPC's accept margin. */
  def accept(pairs: Array[(Int, Int)]): Array[Boolean] = logits(pairs).map(keeps)
  def accept(u: Int, v: Int): Boolean = accept(Array((u, v)))(0)

  /** The accepted pairs with their scores, one logit per pair. */
  def accepted(pairs: Array[(Int, Int)]): Array[(Int, Int, Double)] =
    pairs.zip(logits(pairs)).collect { case ((u, v), l) if keeps(l) => (u, v, LinkScorer.sigmoid(l)) }
}

object Ensemble {

  /** Attention heads of the pair-token encoder. */
  private val Heads = 2

  /** Token rows of a batch: per pair [z_u^{t1} … z_u^{tW}, z_v^{t1} … z_v^{tW}]. */
  private[core] def pairTokens(weekly: Seq[Tensor], pairs: Array[(Int, Int)]): Tensor =
    Tensor.fromRows(pairs.toIndexedSeq.flatMap { case (u, v) => weekly.map(_.row(u)) ++ weekly.map(_.row(v)) })

  /** Head input for a batch: attended tokens flattened ‖ raw tokens flattened
    * (residual skip past the randomly-initialised attention) ‖ per-week
    * u∘v interactions (the similarity term the classifier actually needs —
    * same trick as GnnTraining.pairInput).
    */
  private[core] def headInput(mha: MultiHeadAttention, x: Node, batch: Int,
                              tokens: Int, dim: Int, struct: Tensor)(implicit tape: Tape): Node = {
    val w = tokens / 2
    val enc = mha.forward(x, tokens)
    val uIdx = Array.tabulate(batch * w)(i => (i / w) * tokens + (i % w))
    val vIdx = Array.tabulate(batch * w)(i => (i / w) * tokens + w + (i % w))
    val inter = Ad.reshape(
      Ad.hadamard(Ad.gatherRows(x, uIdx), Ad.gatherRows(x, vIdx)), batch, w * dim)
    Ad.concatCols(Ad.concatCols(
      Ad.concatCols(Ad.reshape(enc, batch, tokens * dim), Ad.reshape(x, batch, tokens * dim)),
      inter), Ad.const(struct))
  }

  /** Width of `headInput` for `tokens` tokens of width `dim` (+4 struct). */
  private[core] def headInputDim(tokens: Int, dim: Int): Int = (2 * tokens + tokens / 2) * dim + 4

  /** Trains the ensemble over `weeklyZ` (one embedding matrix per weekly ALPC
    * model; all n×dim) using the given split's train pairs/labels.
    */
  def fit(weeklyZ: Seq[Tensor], data: LinkPredData, cfg: EnsembleConfig = EnsembleConfig()): EnsembleScorer = {
    require(weeklyZ.nonEmpty, "ensemble needs at least one weekly model")
    val dim = weeklyZ.head.cols
    require(weeklyZ.forall(z => z.cols == dim), "weekly embedding dims differ")
    val w = weeklyZ.length
    val tokens = 2 * w
    val rng = new Random(cfg.seed)
    val mha = new MultiHeadAttention(dim, Heads, rng, "ens.mha")
    val head = new Mlp(Seq(headInputDim(tokens, dim), dim, 1), rng, "ens.head")

    // the class-balanced pairs ALPC's threshold task also uses (the 0.5 accept
    // cut assumes a balanced prior; the raw 1:3 ratio would bias the classifier
    // toward rejecting every relation), capped so cost stays bounded at bench scale
    val balanced = data.trainPairs.zip(data.trainLabels).take(data.balancedCount)
    val sampled = if (balanced.length <= cfg.maxTrainPairs) balanced
                  else rng.shuffle(balanced.toIndexedSeq).take(cfg.maxTrainPairs).toArray
    val pairs = sampled.map(_._1)
    val labels = sampled.map(_._2)

    val x = pairTokens(weeklyZ, pairs)
    val sf = GnnTraining.structFeatures(data.trainGraph) _
    val structT = GnnTraining.featureRows(sf, pairs)
    GnnTraining.train(mha.params ++ head.params, cfg.epochs) { _ => implicit tape =>
      Ad.bceWithLogits(head.forward(headInput(mha, Ad.const(x), pairs.length, tokens, dim, structT)), labels)
    }
    new EnsembleScorer(weeklyZ, mha, head, tokens, sf)
  }
}
