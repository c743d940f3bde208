package repro.linkpred

/** A fitted model scoring entity pairs. `logits` is the one model-specific
  * method: the logits of a whole batch of pairs in a single forward pass.
  * Scores are their sigmoids and live in [0,1]; a single pair is a batch of one.
  */
trait LinkScorer {
  def logits(pairs: Array[(Int, Int)]): Array[Double]
  def scoreAll(pairs: Array[(Int, Int)]): Array[Double] = logits(pairs).map(LinkScorer.sigmoid)
  def score(u: Int, v: Int): Double = scoreAll(Array((u, v)))(0)
}

object LinkScorer {
  def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))
}

/** A trainable link-prediction method (one Table II row). */
trait LinkPredictor {
  def name: String
  def fit(data: LinkPredData): LinkScorer
}

/** 1-D logistic calibration s ↦ σ(a·s + b), fit by gradient descent on the
  * training pairs. Gives embedding methods (dot-product scores on ℝ) a
  * probability-scale output comparable with the GNNs' sigmoid heads.
  */
object Calibration {
  private val Iters = 300
  private val Lr = 0.5

  def fit(raw: Array[Double], labels: Array[Double]): (Double, Double) = {
    var a = 1.0; var b = 0.0
    val n = raw.length
    var it = 0
    while (it < Iters) {
      var ga = 0.0; var gb = 0.0
      var i = 0
      while (i < n) {
        val p = 1.0 / (1.0 + math.exp(-(a * raw(i) + b)))
        val d = p - labels(i)
        ga += d * raw(i); gb += d
        i += 1
      }
      a -= Lr * ga / n; b -= Lr * gb / n
      it += 1
    }
    (a, b)
  }

  def apply(a: Double, b: Double, s: Double): Double = LinkScorer.sigmoid(a * s + b)
}
