package repro.linkpred

import repro.graph.EntityGraph
import repro.SparkSpec
import scala.util.Random

class WalksSpec extends SparkSpec {

  private val edges = Seq((0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0), (1, 3, 0))
  private lazy val g = EntityGraph.fromEdges(edges, 5) // node 4 isolated

  test("uniform walks only traverse real edges") {
    val walks = Walks.uniformWalks(g, walksPerNode = 3, walkLen = 6, new Random(1))
    walks.foreach { w =>
      w.sliding(2).foreach { s =>
        assert(g.hasEdge(s(0), s(1)), s"walk used non-edge ${s(0)}-${s(1)}")
      }
    }
  }

  test("isolated nodes start no walks") {
    val walks = Walks.uniformWalks(g, walksPerNode = 2, walkLen = 4, new Random(2))
    assert(walks.length == 4 * 2)
    assert(!walks.exists(_.head == 4))
  }

  test("biased walks traverse real edges and respect return bias") {
    val walks = Walks.biasedWalks(g, walksPerNode = 50, walkLen = 5, p = 0.01, q = 1.0, new Random(3))
    walks.foreach(w => w.sliding(2).foreach(s => assert(g.hasEdge(s(0), s(1)))))
    // p→0 strongly encourages immediate backtracking: count returns at step 2
    val returns = walks.count(w => w.length >= 3 && w(2) == w(0))
    assert(returns.toDouble / walks.length > 0.5, s"low-p should backtrack often: $returns/${walks.length}")
  }

  test("high p discourages backtracking") {
    val back = Walks.biasedWalks(g, 80, 3, p = 100.0, q = 1.0, new Random(4))
      .count(w => w(2) == w(0))
    val free = Walks.biasedWalks(g, 80, 3, p = 0.01, q = 1.0, new Random(4))
      .count(w => w(2) == w(0))
    assert(back < free)
  }

  test("toPairs respects the window") {
    val pairs = Walks.toPairs(Array(Array(1, 2, 3, 4)), window = 1)
    val expected = Set((1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3))
    assert(pairs.toSet == expected)
  }

  test("DeepWalk fixture AUC beats random") {
    val data = TestGraphs.tinyDataset(spark)
    val scorer = new DeepWalk(dim = 16, walksPerNode = 6, walkLen = 8, epochs = 2).fit(data)
    val auc = Metrics.auc(scorer.scoreAll(data.testPos), scorer.scoreAll(data.testNeg))
    assert(auc > 0.6, s"DeepWalk AUC $auc")
    assert(TestGraphs.bits(scorer.scoreAll(data.testPos)) ==
      TestGraphs.bits(TestGraphs.perPair(scorer, data.testPos)))
  }

  test("Node2Vec fixture AUC beats random") {
    val data = TestGraphs.tinyDataset(spark)
    val scorer = new Node2Vec(dim = 16, walksPerNode = 6, walkLen = 8, epochs = 2).fit(data)
    val auc = Metrics.auc(scorer.scoreAll(data.testPos), scorer.scoreAll(data.testNeg))
    assert(auc > 0.6, s"Node2Vec AUC $auc")
    assert(TestGraphs.bits(scorer.scoreAll(data.testPos)) ==
      TestGraphs.bits(TestGraphs.perPair(scorer, data.testPos)))
  }
}
