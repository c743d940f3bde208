package repro.linkpred

import repro.SparkSpec
import repro.graph.EntityGraph

class LinkPredDataSpec extends SparkSpec {

  private lazy val data: LinkPredData = {
    import spark.implicits._
    val n = 60
    val rng = new scala.util.Random(5)
    val edges = (for (u <- 0 until n; v <- u + 1 until n if rng.nextDouble() < 0.1)
      yield (u, v, rng.nextInt(2))).toDF("src", "dst", "rel_type")
    val feat = Array.fill(n)(Array.fill(4)(rng.nextDouble()))
    LinkPredData.split(spark, edges, n, feat, feat, testFrac = 0.2, negRatio = 3, seed = 7)
  }

  test("split fractions approximate the request") {
    val total = data.trainPos.length + data.testPos.length
    val frac = data.testPos.length.toDouble / total
    assert(frac > 0.1 && frac < 0.3, s"test fraction $frac")
  }

  test("training negatives respect the 1:3 ratio, test is 1:1") {
    assert(data.trainNeg.length == data.trainPos.length * 3)
    assert(data.testNeg.length == data.testPos.length)
  }

  test("negatives are non-edges") {
    val all = (data.trainPos ++ data.testPos).flatMap { case (u, v) => Seq((u, v), (v, u)) }.toSet
    (data.trainNeg ++ data.testNeg).foreach { case (u, v) =>
      assert(!all.contains((u, v)) && u != v)
    }
  }

  test("train graph excludes test edges") {
    data.testPos.foreach { case (u, v) => assert(!data.trainGraph.hasEdge(u, v)) }
    data.trainPos.foreach { case (u, v) => assert(data.trainGraph.hasEdge(u, v)) }
  }

  test("features concatenate semantic and co-occurrence blocks") {
    assert(data.features(0).length == 8)
    assert(data.features(3).take(4).sameElements(data.featSe(3)))
    assert(data.features(3).drop(4).sameElements(data.featCo(3)))
  }

  test("trainPairs and labels align") {
    assert(data.trainPairs.length == data.trainLabels.length)
    assert(data.trainLabels.take(data.trainPos.length).forall(_ == 1.0))
    assert(data.trainLabels.drop(data.trainPos.length).forall(_ == 0.0))
  }

  test("the balanced set is the prefix of trainPairs: every positive, then as many negatives") {
    def check(d: LinkPredData): Unit = {
      val n = d.balancedCount
      val nNeg = math.min(d.trainPos.length, d.trainNeg.length)
      assert(n == d.trainPos.length + nNeg)
      assert(d.trainPairs.take(n).sameElements(d.trainPos ++ d.trainNeg.take(d.trainPos.length)))
      assert(d.trainLabels.take(n).sameElements(Array.fill(d.trainPos.length)(1.0) ++ Array.fill(nNeg)(0.0)))
    }
    check(data)
    assert(data.balancedCount == 2 * data.trainPos.length)
    // fewer negatives than positives: the set is all of trainPairs
    val pos = Array((0, 1), (1, 2), (2, 3))
    val neg = Array((0, 3))
    val feat = Array.fill(4)(Array(0.5))
    val small = LinkPredData(4, EntityGraph.fromEdges(pos.toIndexedSeq.map { case (u, v) => (u, v, 0) }, 4),
      pos, neg, Array.empty, Array.empty, feat, feat, seed = 1)
    check(small)
    assert(small.balancedCount == 4)
    assert(small.trainPairs.take(small.balancedCount).sameElements(small.trainPairs))
  }

  test("a shuffled input splits into disjoint train and test positives that together are the input") {
    val gc = TestGraphs.tinyCandidates(spark)
    val d = LinkPredData.split(spark, gc, TestGraphs.world.cfg.nEntities, TestGraphs.embSe, TestGraphs.embCo,
      seed = 13)
    val input = gc.collect().map(r => (r.getInt(0), r.getInt(1))).toSeq
    assert(d.testPos.nonEmpty && d.trainPos.nonEmpty)
    assert(d.trainPos.toSet.intersect(d.testPos.toSet).isEmpty)
    assert((d.trainPos ++ d.testPos).toSeq.sorted == input.sorted)
  }

  test("split is deterministic in the seed") {
    import spark.implicits._
    val n = 60
    val rng = new scala.util.Random(5)
    val edges = (for (u <- 0 until n; v <- u + 1 until n if rng.nextDouble() < 0.1)
      yield (u, v, rng.nextInt(2))).toDF("src", "dst", "rel_type")
    val feat = Array.fill(n)(Array.fill(4)(rng.nextDouble()))
    val d2 = LinkPredData.split(spark, edges, n, feat, feat, testFrac = 0.2, negRatio = 3, seed = 7)
    assert(d2.trainPos.sameElements(data.trainPos))
    assert(d2.testNeg.sameElements(data.testNeg))
  }

  test("a graph with no training positives left fails naming the edge and test counts") {
    import spark.implicits._
    val feat = Array.fill(10)(Array.fill(4)(0.5))
    val none = Seq.empty[(Int, Int, Int)].toDF("src", "dst", "rel_type")
    val e1 = intercept[IllegalArgumentException](LinkPredData.split(spark, none, 10, feat, feat))
    assert(e1.getMessage.contains("no training positives left of 0 candidate edges, 0 of them held out"))
    // testFrac 1 holds every edge out
    val three = Seq((0, 1, 0), (1, 2, 0), (2, 3, 1)).toDF("src", "dst", "rel_type")
    val e3 = intercept[IllegalArgumentException](LinkPredData.split(spark, three, 10, feat, feat, testFrac = 1.0))
    assert(e3.getMessage.contains("of 3 candidate edges, 3 of them held out for test"), e3.getMessage)
  }

  test("ragged feature rows fail in Tensor.fromRows naming the row and both widths") {
    val ragged = data.copy(featCo = data.featCo.updated(7, Array(1.0)))
    val e = intercept[IllegalArgumentException](repro.nn.Tensor.fromRows(ragged.features.toIndexedSeq))
    assert(e.getMessage.contains("row 7 has 5 values, row 0 has 8"), e.getMessage)
  }

  test("a permuted, re-partitioned G^C gives the same split") {
    val gc = TestGraphs.tinyCandidates(spark)
    def split(df: org.apache.spark.sql.DataFrame) = LinkPredData.split(spark, df,
      TestGraphs.world.cfg.nEntities, TestGraphs.embSe, TestGraphs.embCo, seed = 13)
    val d = split(gc)
    val permuted = new scala.util.Random(3).shuffle(gc.collect().toSeq)
    val d2 = split(spark.createDataFrame(java.util.Arrays.asList(permuted: _*), gc.schema).repartition(5))
    assert(d2.trainPos.sameElements(d.trainPos) && d2.testPos.sameElements(d.testPos))
    assert(d2.trainNeg.sameElements(d.trainNeg) && d2.testNeg.sameElements(d.testNeg))
    // the held-out draw is the keyed hash alone: another seed holds out other edges
    val d3 = LinkPredData.split(spark, gc, TestGraphs.world.cfg.nEntities, TestGraphs.embSe, TestGraphs.embCo,
      seed = 14)
    assert(!d3.testPos.sameElements(d.testPos))
    d.testPos.foreach { case (u, v) => assert(LinkPredData.testDraw(13, u, v) < 0.10) }
  }
}
