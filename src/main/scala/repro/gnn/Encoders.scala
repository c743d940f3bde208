package repro.gnn

import repro.graph.EntityGraph
import repro.nn._
import scala.util.Random

/** Graph encoders used by the ranking-stage models. All operate full-batch on
  * the train graph with `k` sampled neighbours per node per epoch (resampled
  * each forward, which doubles as edge dropout).
  */

/** A full-graph encoder: `forward` returns the N×outDim embedding node,
  * drawing its neighbour samples from `epochRng`.
  */
trait GraphEncoder {
  def outDim: Int
  def params: Seq[Param]
  def forward(features: Tensor, g: EntityGraph, epochRng: Random)(implicit tape: Tape): Node
}

/** GeniePath (Liu et al., 2018) — the paper's backbone (eq. 1).
  *
  * Each layer is adaptive-breadth then adaptive-depth:
  *   breadth:  h̃_u = tanh(W · Σ_v α(h_u, h_v) h_v),
  *             α = softmax_v( vᵀ tanh(W_s h_u + W_d h_v) )
  *   depth:    LSTM-style gating over h̃ with a carried cell state.
  */
final class GeniePathEncoder(inDim: Int, val dim: Int, layers: Int, val k: Int, rng: Random)
    extends GraphEncoder {
  val input = new Dense(inDim, dim, "tanh", rng, "gp.in")

  /** Output width: input projection is concatenated with the gated output
    * (jumping-knowledge-style skip) so the pair head sees both feature-level
    * and structure-level signal — the LSTM gate alone starts near zero and
    * would otherwise starve the head early in training.
    */
  val outDim: Int = 2 * dim

  final class LayerParams(li: Int) {
    val ws = new Param(Tensor.glorot(dim, dim, rng), s"gp$li.ws")
    val wd = new Param(Tensor.glorot(dim, dim, rng), s"gp$li.wd")
    val vAttn = new Param(Tensor.glorot(dim, 1, rng), s"gp$li.v")
    val w = new Param(Tensor.glorot(dim, dim, rng), s"gp$li.w")
    val wi = new Param(Tensor.glorot(dim, dim, rng), s"gp$li.wi")
    val wf = new Param(Tensor.glorot(dim, dim, rng), s"gp$li.wf")
    val wo = new Param(Tensor.glorot(dim, dim, rng), s"gp$li.wo")
    val wc = new Param(Tensor.glorot(dim, dim, rng), s"gp$li.wc")
    def all: Seq[Param] = Seq(ws, wd, vAttn, w, wi, wf, wo, wc)
  }
  val layerParams: Seq[LayerParams] = (0 until layers).map(new LayerParams(_))

  def params: Seq[Param] = input.params ++ layerParams.flatMap(_.all)

  /** Full-graph forward: returns the N×outDim embedding node. */
  def forward(features: Tensor, g: EntityGraph, epochRng: Random)(implicit tape: Tape): Node = {
    val h0 = input.forward(Ad.const(features))
    var h = h0
    var c = Ad.const(Tensor.zeros(g.n, dim))
    val selfIdx = Array.tabulate(g.n * k)(_ / k)
    layerParams.foreach { lp =>
      val nbIdx = g.sampleNeighbors(k, epochRng)
      val hnb = Ad.gatherRows(h, nbIdx) // (N*k)×dim
      val selfProj = Ad.gatherRows(Ad.matmul(h, Ad.leaf(lp.ws)), selfIdx) // each row k times
      val nbProj = Ad.matmul(hnb, Ad.leaf(lp.wd))
      val e = Ad.matmul(Ad.tanh(Ad.add(selfProj, nbProj)), Ad.leaf(lp.vAttn)) // (N*k)×1
      val attn = Ad.softmaxRows(Ad.reshape(e, g.n, k))
      val pooled = Ad.attnPool(hnb, attn, k)
      val hTilde = Ad.tanh(Ad.matmul(pooled, Ad.leaf(lp.w)))
      val i = Ad.sigmoid(Ad.matmul(hTilde, Ad.leaf(lp.wi)))
      val f = Ad.sigmoid(Ad.matmul(hTilde, Ad.leaf(lp.wf)))
      val o = Ad.sigmoid(Ad.matmul(hTilde, Ad.leaf(lp.wo)))
      val cTilde = Ad.tanh(Ad.matmul(hTilde, Ad.leaf(lp.wc)))
      c = Ad.add(Ad.hadamard(f, c), Ad.hadamard(i, cTilde))
      h = Ad.hadamard(o, Ad.tanh(c))
    }
    Ad.concatCols(h0, h)
  }
}

/** GraphSAGE-mean style encoder: h' = act([h ‖ mean(h_N)] W + b).
  * Used as the convolutional encoder for VGAE and as a building block.
  * `finalAct` controls the last layer's activation — VGAE needs "linear"
  * (like its μ layer) so the inner-product decoder can output negative
  * logits; hidden layers stay ReLU.
  */
final class MeanSageEncoder(inDim: Int, val dim: Int, layers: Int, val k: Int, rng: Random,
                            finalAct: String = "tanh") extends GraphEncoder {
  val input = new Dense(inDim, dim, "tanh", rng, "sage.in")
  val outDim: Int = dim
  val denses: Seq[Dense] = (0 until layers).map { i =>
    val act = if (i == layers - 1) finalAct else "relu"
    new Dense(2 * dim, dim, act, rng, s"sage.$i")
  }

  def params: Seq[Param] = input.params ++ denses.flatMap(_.params)

  def forward(features: Tensor, g: EntityGraph, epochRng: Random)(implicit tape: Tape): Node = {
    var h = input.forward(Ad.const(features))
    val uniform = Ad.const(Tensor.fill(g.n, k, 1.0 / k))
    denses.foreach { d =>
      val nbIdx = g.sampleNeighbors(k, epochRng)
      val hnb = Ad.gatherRows(h, nbIdx)
      val pooled = Ad.attnPool(hnb, uniform, k)
      h = d.forward(Ad.concatCols(h, pooled))
    }
    h
  }
}

/** CompGCN-style relation-aware encoder: neighbours are aggregated per
  * relation type (co-occurrence vs semantic candidate edges), composed with a
  * learned relation embedding by element-wise product (the `mult` composition
  * of Vashishth et al.), then mixed with a self transform.
  */
final class CompGcnEncoder(inDim: Int, val dim: Int, layers: Int, val k: Int,
                           nRels: Int, rng: Random) extends GraphEncoder {
  val input = new Dense(inDim, dim, "tanh", rng, "cgcn.in")

  /** Same jumping-knowledge skip as GeniePathEncoder: output is [h0 ‖ h_L]. */
  val outDim: Int = 2 * dim

  final class LayerParams(li: Int) {
    val wSelf = new Param(Tensor.glorot(dim, dim, rng), s"cgcn$li.self")
    val wRel: Seq[Param] = (0 until nRels).map(r => new Param(Tensor.glorot(dim, dim, rng), s"cgcn$li.w$r"))
    val relEmb: Seq[Param] = (0 until nRels).map(r => new Param(Tensor.ones(1, dim), s"cgcn$li.rel$r"))
    def all: Seq[Param] = Seq(wSelf) ++ wRel ++ relEmb
  }
  val layerParams: Seq[LayerParams] = (0 until layers).map(new LayerParams(_))

  def params: Seq[Param] = input.params ++ layerParams.flatMap(_.all)

  def forward(features: Tensor, g: EntityGraph, epochRng: Random)(implicit tape: Tape): Node = {
    val h0 = input.forward(Ad.const(features))
    var h = h0
    val uniform = Ad.const(Tensor.fill(g.n, k, 1.0 / k))
    layerParams.foreach { lp =>
      var acc = Ad.matmul(h, Ad.leaf(lp.wSelf))
      (0 until lp.wRel.length).foreach { r =>
        val nbIdx = g.sampleNeighborsOfType(k, r, epochRng)
        val hnb = Ad.gatherRows(h, nbIdx)
        // every neighbour row times the relation embedding
        val composed = Ad.hadamard(hnb, Ad.gatherRows(Ad.leaf(lp.relEmb(r)), new Array[Int](hnb.v.rows)))
        val pooled = Ad.attnPool(composed, uniform, k)
        acc = Ad.add(acc, Ad.matmul(pooled, Ad.leaf(lp.wRel(r))))
      }
      h = Ad.tanh(acc)
    }
    Ad.concatCols(h0, h)
  }
}
