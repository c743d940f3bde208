package repro.linkpred

/** Ranking metrics for link prediction. */
object Metrics {

  /** Area under the ROC curve from positive/negative score samples
    * (rank-based Mann-Whitney formulation; ties count 0.5).
    */
  def auc(posScores: Array[Double], negScores: Array[Double]): Double = {
    require(posScores.nonEmpty && negScores.nonEmpty, "auc: empty inputs")
    val all = (posScores.map((_, 1)) ++ negScores.map((_, 0))).sortBy(_._1)
    // average ranks with tie handling
    val ranks = new Array[Double](all.length)
    var i = 0
    while (i < all.length) {
      var j = i
      while (j + 1 < all.length && all(j + 1)._1 == all(i)._1) j += 1
      val avg = (i + j + 2) / 2.0 // ranks are 1-based
      var k = i
      while (k <= j) { ranks(k) = avg; k += 1 }
      i = j + 1
    }
    var posRankSum = 0.0
    i = 0
    while (i < all.length) { if (all(i)._2 == 1) posRankSum += ranks(i); i += 1 }
    val nPos = posScores.length.toDouble
    val nNeg = negScores.length.toDouble
    (posRankSum - nPos * (nPos + 1) / 2) / (nPos * nNeg)
  }
}
