package repro.nn

/** Adam optimizer with global-norm gradient clipping. */
final class Adam(params: Seq[Param], lr: Double = 1e-2, clipNorm: Double = 5.0) {
  import Adam._
  private val m = params.map(p => Tensor.zeros(p.v.rows, p.v.cols))
  private val v = params.map(p => Tensor.zeros(p.v.rows, p.v.cols))
  private var t = 0

  def zeroGrad(): Unit = params.foreach(_.zeroGrad())

  def step(): Unit = {
    t += 1
    // global-norm clip keeps GNN training stable on small graphs
    val norm = math.sqrt(params.map(_.g.sumSquares).sum)
    val scale = if (clipNorm > 0 && norm > clipNorm) clipNorm / norm else 1.0
    val bc1 = 1 - math.pow(Beta1, t)
    val bc2 = 1 - math.pow(Beta2, t)
    params.indices.foreach { i =>
      val p = params(i); val mi = m(i); val vi = v(i)
      var j = 0
      while (j < p.v.data.length) {
        val g = p.g.data(j) * scale
        mi.data(j) = Beta1 * mi.data(j) + (1 - Beta1) * g
        vi.data(j) = Beta2 * vi.data(j) + (1 - Beta2) * g * g
        val mHat = mi.data(j) / bc1
        val vHat = vi.data(j) / bc2
        p.v.data(j) -= lr * mHat / (math.sqrt(vHat) + Eps)
        j += 1
      }
    }
  }
}

object Adam {

  /** Decay rates of the first- and second-moment estimates, and the
    * denominator guard (Kingma & Ba's defaults).
    */
  private val Beta1 = 0.9
  private val Beta2 = 0.999
  private val Eps = 1e-8
}
