package repro.core

import repro.SparkSpec
import repro.linkpred.{Metrics, TestGraphs}
import repro.linkpred.TestGraphs.{bits, perPair}

class AlpcSpec extends SparkSpec {

  private lazy val data = TestGraphs.tinyDataset(spark)
  private lazy val scorer = new Alpc(AlpcConfig(dim = 16, layers = 2, k = 5, epochs = 35)).fit(data)

  test("ALPC learns the fixture graph above the GNN baselines' bar") {
    val auc = Metrics.auc(scorer.scoreAll(data.testPos), scorer.scoreAll(data.testNeg))
    assert(auc > 0.72, s"ALPC AUC $auc")
  }

  test("scores are probabilities") {
    val all = scorer.scoreAll(data.testPos) ++ scorer.scoreAll(data.testNeg)
    assert(all.forall(s => s >= 0 && s <= 1))
    val ps = data.testPos ++ data.testNeg
    assert(bits(scorer.scoreAll(ps)) == bits(perPair(scorer, ps)))
  }

  test("adaptive thresholds differ across source entities") {
    val ths = (0 until data.n).map(scorer.thresholdOf)
    assert(ths.distinct.size > data.n / 4, "thresholds collapsed to a constant")
    assert(bits(scorer.thresholdOf(Array.range(0, data.n))) == bits(ths.toArray))
  }

  test("adaptive acceptance is more precise than it is on negatives") {
    val posAccept = data.testPos.count { case (u, v) => scorer.acceptAdaptive(u, v) }
    val negAccept = data.testNeg.count { case (u, v) => scorer.acceptAdaptive(u, v) }
    val ps = data.testPos ++ data.testNeg
    assert(scorer.acceptAdaptive(ps).toSeq == ps.toSeq.map { case (u, v) => scorer.acceptAdaptive(u, v) })
    assert(posAccept.toDouble / data.testPos.length > negAccept.toDouble / data.testNeg.length + 0.2,
      s"posAccept=$posAccept/${data.testPos.length} negAccept=$negAccept/${data.testNeg.length}")
  }

  test("variant names reflect the ablation flags") {
    assert(new Alpc(AlpcConfig()).name == "ALPC")
    assert(new Alpc(AlpcConfig(useThreshold = false)).name == "ALPC_th-")
    assert(new Alpc(AlpcConfig(useContrastive = false)).name == "ALPC_cl-")
  }

  test("semantic anchors are correlated high-similarity pairs") {
    val alpc = new Alpc(AlpcConfig())
    val anchors = alpc.semanticAnchors(data)
    assert(anchors.nonEmpty)
    val trainSet = data.trainPos.toSet
    anchors.take(50).foreach(p => assert(trainSet.contains(p)))
    // anchors should have higher mean semantic similarity than random train edges
    def meanSim(ps: Array[(Int, Int)]) = ps.map { case (u, v) =>
      repro.world.EntityWorld.cosine(data.featSe(u), data.featSe(v))
    }.sum / ps.length
    assert(meanSim(anchors) >= meanSim(data.trainPos) - 1e-9)
  }

  test("th- ablation has no threshold head (ε ≡ 0)") {
    val s = new Alpc(AlpcConfig(dim = 8, layers = 1, k = 4, epochs = 5, useThreshold = false)).fit(data)
    (0 until 10).foreach(u => assert(s.thresholdOf(u) == 0.0))
    assert(s.thresholdOf(Array.range(0, 10)).forall(_ == 0.0))
    assert(s.acceptAdaptive(data.testPos).toSeq == data.testPos.toSeq.map { case (u, v) => s.acceptAdaptive(u, v) })
  }

  test("embeddings have encoder output width and are finite") {
    assert(scorer.z.cols == 2 * 16)
    assert(scorer.z.row(0).length == 32)
    assert(scorer.z.data.forall(x => !x.isNaN && !x.isInfinite))
  }

  test("training is deterministic in the seed") {
    // the head products run above the parallel cutoff, so this also pins the
    // pooled kernels: bit-identical z and logits from two fits in one JVM
    val cfg = AlpcConfig(dim = 8, layers = 1, k = 4, epochs = 4, seed = 5)
    val a = new Alpc(cfg).fit(data)
    val b = new Alpc(cfg).fit(data)
    val ps = data.testPos ++ data.testNeg
    assert(bits(a.z.data) == bits(b.z.data))
    assert(bits(a.logits(ps)) == bits(b.logits(ps)))
  }
}
