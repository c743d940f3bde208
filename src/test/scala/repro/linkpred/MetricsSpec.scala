package repro.linkpred

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  test("perfect separation gives AUC 1, inverted gives 0") {
    assert(Metrics.auc(Array(0.9, 0.8), Array(0.1, 0.2)) == 1.0)
    assert(Metrics.auc(Array(0.1, 0.2), Array(0.9, 0.8)) == 0.0)
  }

  test("identical scores give AUC 0.5 via tie handling") {
    assert(Metrics.auc(Array(0.5, 0.5, 0.5), Array(0.5, 0.5)) == 0.5)
  }

  test("AUC matches hand computation on a mixed case") {
    // pos: 0.8, 0.4; neg: 0.6, 0.2 → pairs won: (0.8>0.6),(0.8>0.2),(0.4<0.6),(0.4>0.2) = 3/4
    assert(math.abs(Metrics.auc(Array(0.8, 0.4), Array(0.6, 0.2)) - 0.75) < 1e-12)
  }

  test("AUC with one tie counts half") {
    // pos: 0.5, neg: 0.5, 0.1 → 0.5 vs 0.5 = 0.5, 0.5 vs 0.1 = 1 → 0.75
    assert(math.abs(Metrics.auc(Array(0.5), Array(0.5, 0.1)) - 0.75) < 1e-12)
  }

  test("AUC rejects empty input") {
    intercept[IllegalArgumentException](Metrics.auc(Array.empty, Array(0.5)))
  }

  test("calibration maps separable scores to confident probabilities") {
    val raw = Array(-2.0, -1.5, 1.5, 2.0)
    val y = Array(0.0, 0.0, 1.0, 1.0)
    val (a, b) = Calibration.fit(raw, y)
    assert(Calibration(a, b, 2.0) > 0.8)
    assert(Calibration(a, b, -2.0) < 0.2)
  }
}
