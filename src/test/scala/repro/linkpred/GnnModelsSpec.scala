package repro.linkpred

import repro.SparkSpec

/** Each Table II baseline must learn the tiny fixture graph well above
  * chance, produce probabilities in [0,1], and be deterministic in its seed.
  */
class GnnModelsSpec extends SparkSpec {

  private lazy val data = TestGraphs.tinyDataset(spark)

  private def checkModel(m: LinkPredictor, minAuc: Double): Double = {
    val scorer = m.fit(data)
    val pos = scorer.scoreAll(data.testPos)
    val neg = scorer.scoreAll(data.testNeg)
    assert((pos ++ neg).forall(s => s >= 0 && s <= 1), s"${m.name} scores outside [0,1]")
    val auc = Metrics.auc(pos, neg)
    assert(auc > minAuc, s"${m.name} AUC $auc below $minAuc")
    val ps = data.testPos ++ data.testNeg
    assert(TestGraphs.bits(scorer.scoreAll(ps)) == TestGraphs.bits(TestGraphs.perPair(scorer, ps)),
      s"${m.name} batched scores differ from per-pair scores")
    auc
  }

  test("GeniePath learns the fixture graph") {
    checkModel(new GeniePathLP(dim = 16, layers = 2, k = 5, epochs = 35), 0.7)
  }

  test("VGAE learns the fixture graph") {
    checkModel(new Vgae(dim = 16, layers = 2, k = 5, epochs = 60), 0.6)
  }

  test("CompGCN learns the fixture graph") {
    checkModel(new CompGcnLP(dim = 16, layers = 2, k = 5, epochs = 35), 0.7)
  }

  test("PaGNN learns the fixture graph") {
    checkModel(new PaGnn(dim = 16, layers = 2, k = 5, epochs = 35), 0.7)
  }

  test("SEAL learns the fixture graph from structural features") {
    checkModel(new Seal(epochs = 120), 0.65)
  }

  test("SEAL is deterministic in its seed") {
    val s1 = new Seal(epochs = 50, seed = 4).fit(data)
    val s2 = new Seal(epochs = 50, seed = 4).fit(data)
    data.testPos.take(10).foreach { case (u, v) =>
      assert(s1.score(u, v) == s2.score(u, v))
    }
  }

  test("structural features behave on known configurations") {
    val sf = GnnTraining.structFeatures(data.trainGraph) _
    val (u, v) = data.trainPos.head
    val f = sf(u, v)
    assert(f.length == 4)
    assert(f.forall(x => !x.isNaN && !x.isInfinite))
  }
}
