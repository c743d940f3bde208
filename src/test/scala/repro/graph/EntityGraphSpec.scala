package repro.graph

import org.scalacheck.{Gen, Prop, Test}
import repro.SparkSpec
import scala.util.Random

class EntityGraphSpec extends SparkSpec {
  import EntityGraphSpec._

  // path 0-1-2-3 plus triangle 1-2-4
  private val edges = Seq((0, 1, 0), (1, 2, 0), (2, 3, 1), (1, 4, 1), (2, 4, 0))
  private lazy val g = EntityGraph.fromEdges(edges, 5)

  test("degrees and edge count") {
    assert(g.numEdges == 5)
    assert(g.degree(0) == 1 && g.degree(1) == 3 && g.degree(2) == 3 && g.degree(3) == 1 && g.degree(4) == 2)
  }

  test("adjacency is symmetric") {
    edges.foreach { case (u, v, _) =>
      assert(g.hasEdge(u, v) && g.hasEdge(v, u))
    }
    assert(!g.hasEdge(0, 3))
  }

  test("duplicate edges are deduplicated") {
    val g2 = EntityGraph.fromEdges(edges ++ Seq((0, 1, 0), (1, 0, 0)), 5)
    assert(g2.numEdges == 5)
  }

  test("scored duplicate pairs keep their max score; unscored edges weigh 1") {
    val gs = EntityGraph.fromScoredEdges(Seq((0, 1, 0, 0.3), (1, 0, 0, 0.7), (1, 2, 0, 0.4), (0, 1, 0, 0.5)), 3)
    def scoreOf(u: Int, v: Int) = (gs.offsets(u) until gs.offsets(u + 1)).filter(gs.neighbors(_) == v).map(gs.scores)
    assert(gs.numEdges == 2)
    assert(scoreOf(0, 1) == Seq(0.7) && scoreOf(1, 0) == Seq(0.7))
    assert(scoreOf(1, 2) == Seq(0.4) && scoreOf(2, 1) == Seq(0.4))
    assert(g.scores.forall(_ == 1.0))
  }

  test("neighbor sampling returns only true neighbors, self-loop for isolated") {
    val rng = new Random(1)
    val sample = g.sampleNeighbors(4, rng)
    assert(sample.length == 20)
    (0 until 5).foreach { u =>
      val nb = g.neighborSet(u)
      (0 until 4).foreach(j => assert(nb.contains(sample(u * 4 + j))))
    }
    val gIso = EntityGraph.fromEdges(Seq((0, 1, 0)), 3)
    val s2 = gIso.sampleNeighbors(2, rng)
    assert(s2(2 * 2) == 2 && s2(2 * 2 + 1) == 2, "isolated node must self-loop")
  }

  test("typed neighbor sampling respects rel_type") {
    val rng = new Random(2)
    val s = g.sampleNeighborsOfType(6, 1, rng)
    // node 1's type-1 neighbours: only 4
    (0 until 6).foreach(j => assert(s(1 * 6 + j) == 4))
    // node 0 has no type-1 edges → self-loop
    (0 until 6).foreach(j => assert(s(0 * 6 + j) == 0))
  }

  test("common neighbors / adamic-adar / jaccard against brute force") {
    // nodes 1 and 2 share neighbor 4; 1's nbrs {0,2,4}, 2's nbrs {1,3,4}
    assert(g.commonNeighbors(1, 2) == 1)
    assert(g.jaccard(1, 2) == 1.0 / 5.0)
    val expectedAa = 1.0 / math.log(g.degree(4) + math.E)
    assert(math.abs(g.adamicAdar(1, 2) - expectedAa) < 1e-12)
    assert(g.commonNeighbors(0, 3) == 0 && g.jaccard(0, 3) == 0.0)
  }

  test("structural features equal the Set-based definitions bit for bit on random graphs") {
    val graphs = for {
      n <- Gen.choose(1, 12)
      edges <- Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1))).map(_.take(30))
      loops <- Gen.listOf(Gen.choose(0, n - 1)).map(_.take(3).map(u => (u, u)))
      dupes <- Gen.someOf(edges).map(_.toList.map { case (u, v) => (v, u) })
      types <- Gen.listOfN(edges.length + loops.length + dupes.length, Gen.choose(0, 2))
    } yield (n, (edges ++ loops ++ dupes).zip(types).map { case ((u, v), t) => (u, v, t) })
    val prop = Prop.forAllNoShrink(graphs) { case (n, edges) =>
      // ids reach n + 2: the last nodes are isolated
      val g = EntityGraph.fromEdges(edges, n + 2)
      val wrong = for {
        u <- 0 until g.n; v <- 0 until g.n
        got = (g.commonNeighbors(u, v), g.adamicAdar(u, v), g.jaccard(u, v))
        want = (setCommonNeighbors(g, u, v), setAdamicAdar(g, u, v), setJaccard(g, u, v))
        if got != want
      } yield (u, v, got, want)
      Prop(wrong.isEmpty) :| s"edges $edges: (u, v, got, want) ${wrong.take(3)}"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(100).withInitialSeed(20230418L), prop)
    assert(res.passed, res.status)
  }

  test("the CSR is bit-identical for a permuted edge list with duplicates") {
    // neighbour order within a CSR row drives sampleNeighbors, and through it ALPC's z
    val graphs = for {
      n <- Gen.choose(1, 12)
      edges <- Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1), Gen.choose(0, 2),
        Gen.choose(0, 4).map(_ * 0.25))).map(_.take(30))
      reversed <- Gen.someOf(edges).map(_.toList.map { case (u, v, t, s) => (v, u, t, s) })
      repeated <- Gen.someOf(edges)
      order <- Gen.long
    } yield (n, edges, new Random(order).shuffle(edges ++ reversed ++ repeated))
    def bits(g: EntityGraph) =
      (g.offsets.toSeq, g.neighbors.toSeq, g.relTypes.toSeq, g.scores.toSeq.map(java.lang.Double.doubleToRawLongBits))
    val prop = Prop.forAllNoShrink(graphs) { case (n, edges, shuffled) =>
      val scored = bits(EntityGraph.fromScoredEdges(edges, n + 2)) == bits(EntityGraph.fromScoredEdges(shuffled, n + 2))
      val unscored = bits(EntityGraph.fromEdges(edges.map(e => (e._1, e._2, e._3)), n + 2)) ==
        bits(EntityGraph.fromEdges(shuffled.map(e => (e._1, e._2, e._3)), n + 2))
      Prop(scored && unscored) :| s"edges $edges, shuffled $shuffled"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(20230419L), prop)
    assert(res.passed, res.status)
  }

  test("sampling distribution is roughly uniform over neighbors") {
    val rng = new Random(3)
    val counts = scala.collection.mutable.Map[Int, Int]().withDefaultValue(0)
    (0 until 300).foreach { _ =>
      val s = g.sampleNeighbors(1, rng)
      counts(s(1)) += 1 // node 1 has neighbors 0, 2, 4
    }
    assert(counts.keySet.subsetOf(Set(0, 2, 4)))
    counts.values.foreach(c => assert(c > 50, s"skewed sampling: $counts"))
  }
}

object EntityGraphSpec {

  /** The structural features as first defined, on Scala `Set`s: the oracles
    * for `EntityGraph`'s sorted-row versions.
    */
  def setCommonNeighbors(g: EntityGraph, u: Int, v: Int): Int = {
    val su = g.neighborSet(u)
    g.neighborsOf(v).count(su.contains)
  }

  def setAdamicAdar(g: EntityGraph, u: Int, v: Int): Double = {
    val su = g.neighborSet(u)
    g.neighborsOf(v).filter(su.contains).map(w => 1.0 / math.log(g.degree(w) + math.E)).sum
  }

  def setJaccard(g: EntityGraph, u: Int, v: Int): Double = {
    val su = g.neighborSet(u); val sv = g.neighborSet(v)
    val inter = su.intersect(sv).size
    val union = su.union(sv).size
    if (union == 0) 0.0 else inter.toDouble / union
  }
}
