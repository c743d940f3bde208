package repro.core

import repro.SparkSpec
import repro.linkpred.{Metrics, TestGraphs}
import repro.linkpred.TestGraphs.{bits, perPair}

class EnsembleSpec extends SparkSpec {

  private lazy val data = TestGraphs.tinyDataset(spark)
  private lazy val weekly = Seq(5L, 6L, 7L).map { s =>
    new Alpc(AlpcConfig(dim = 8, layers = 1, k = 4, epochs = 20, seed = s)).fit(data).z
  }
  private lazy val ens = Ensemble.fit(weekly, data, EnsembleConfig(epochs = 25, maxTrainPairs = 2000))

  test("ensemble learns the link labels") {
    val auc = Metrics.auc(ens.scoreAll(data.testPos), ens.scoreAll(data.testNeg))
    assert(auc > 0.7, s"ensemble AUC $auc")
    val ps = data.testPos ++ data.testNeg
    assert(bits(ens.scoreAll(ps)) == bits(perPair(ens, ps)))
  }

  test("fused embedding is the weekly concatenation") {
    val f = ens.fusedEmbedding(3)
    assert(f.length == weekly.map(_.cols).sum)
    assert(f.take(weekly.head.cols).sameElements(weekly.head.row(3)))
    assert(f.drop(2 * weekly.head.cols).sameElements(weekly(2).row(3)))
  }

  test("accept applies the configured logit margin") {
    val margin = 0.75 // EnsembleConfig default
    (data.testPos.take(20) ++ data.testNeg.take(20)).foreach { case (u, v) =>
      val p = ens.score(u, v)
      val logit = math.log(p / (1 - p))
      assert(ens.accept(u, v) == (logit > margin))
    }
    val ps = data.testPos ++ data.testNeg
    val perPairAccept = ps.toSeq.map { case (u, v) => ens.accept(u, v) }
    assert(ens.accept(ps).toSeq == perPairAccept)
    val accepted = ens.accepted(ps)
    assert(accepted.map(a => (a._1, a._2)).toSeq == ps.toSeq.zip(perPairAccept).collect { case (p, true) => p })
    assert(bits(accepted.map(_._3)) == bits(perPair(ens, accepted.map(a => (a._1, a._2)))))
  }

  test("ensemble of a single weekly model also works") {
    val single = Ensemble.fit(weekly.take(1), data, EnsembleConfig(epochs = 10, maxTrainPairs = 1000))
    val auc = Metrics.auc(single.scoreAll(data.testPos), single.scoreAll(data.testNeg))
    assert(auc > 0.6, s"single-week ensemble AUC $auc")
  }

  test("fitting twice in one JVM gives bit-identical logits (pooled kernels)") {
    val cfg = EnsembleConfig(epochs = 4, maxTrainPairs = 2000, seed = 3)
    val ps = data.testPos ++ data.testNeg
    val Seq(a, b) = Seq.fill(2)(Ensemble.fit(weekly, data, cfg))
    assert(bits(a.logits(ps)) == bits(b.logits(ps)))
  }

  test("mismatched weekly dims are rejected") {
    val bad = weekly.take(1) :+ new repro.nn.Tensor(weekly.head.rows, weekly.head.cols + 1,
      new Array[Double](weekly.head.rows * (weekly.head.cols + 1)))
    intercept[IllegalArgumentException](Ensemble.fit(bad, data))
  }

  test("accepted on no candidates is empty") {
    assert(ens.accepted(Array.empty).isEmpty)
    assert(ens.logits(Array.empty).isEmpty && ens.accept(Array.empty[(Int, Int)]).isEmpty)
  }
}
