package repro.core

/** The ensemble head width, which `Ensemble` keeps package-private; the `nn`
  * kernel probe derives its matmul shape from it.
  */
object CoreAccess {
  def ensembleHeadInputDim(tokens: Int, dim: Int): Int = Ensemble.headInputDim(tokens, dim)
}
