package repro.candidate

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.embed.SemanticEmbed
import repro.world.{EntityWorld, WorldConfig}

class CandidateGenerationSpec extends SparkSpec {

  private lazy val world = new EntityWorld(WorldConfig(nEntities = 90, nTopics = 6, nUsers = 10, seed = 37))
  private lazy val embSe = SemanticEmbed.embed(world, SemanticEmbed.SemConfig(signal = 0.8, noise = 0.1))

  test("knn returns exactly k neighbours per source, no self-edges") {
    val edges = CandidateGeneration.knn(embSe, k = 5)
    assert(edges.length == 90 * 5)
    assert(!edges.exists(e => e._1 == e._2))
    assert(edges.groupBy(_._1).values.map(_.length).toSet == Set(5))
  }

  test("knn neighbours are the true cosine top-k") {
    val got = CandidateGeneration.knn(embSe, k = 3).filter(_._1 == 7).map(_._2).toSet
    val expected = (0 until 90).filter(_ != 7)
      .sortBy(j => -EntityWorld.cosine(embSe(7), embSe(j))).take(3).toSet
    assert(got == expected)
  }

  test("candidateGraph canonicalises src<dst and dedups") {
    val gc = CandidateGeneration.candidateGraph(spark, embSe, embSe,
      CandidateGeneration.CandConfig(topKCooc = 4, topKSem = 4)).cache()
    assert(gc.filter(col("src") >= col("dst")).count() == 0)
    assert(gc.groupBy("src", "dst").count().filter(col("count") > 1).count() == 0)
  }

  test("candidate edges are mostly same-topic (the signal TRMP refines)") {
    // topK must stay below topic size (15 here) or cross-topic edges are forced
    val gc = CandidateGeneration.candidateGraph(spark, embSe, embSe,
      CandidateGeneration.CandConfig(topKCooc = 6, topKSem = 5))
    val pairs = gc.select("src", "dst").collect().map(r => (r.getInt(0), r.getInt(1)))
    val sameRate = pairs.count { case (u, v) =>
      world.entities(u).topic == world.entities(v).topic
    }.toDouble / pairs.length
    assert(sameRate > 0.5, s"same-topic rate $sameRate too low for candidate stage")
  }

  test("popularity-sampled pairs hit the requested degree and favour popular entities") {
    val df = CandidateGeneration.popularitySampledPairs(spark, world, avgDegree = 6).cache()
    val nPairs = df.count()
    assert(math.abs(nPairs - 90L * 6 / 2) <= 2, s"got $nPairs pairs")
    // popular entities (low in-topic rank) should appear more often
    val apps = df.select(explode(array(col("src"), col("dst"))).as("e"))
      .groupBy("e").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val popularAvg = (0 until 12).map(i => apps.getOrElse(i, 0L)).sum / 12.0
    val tailAvg = (78 until 90).map(i => apps.getOrElse(i, 0L)).sum / 12.0
    assert(popularAvg > tailAvg, s"popular=$popularAvg tail=$tailAvg")
  }

  private def bitRows(df: org.apache.spark.sql.DataFrame) = df.collect().toSeq
    .map(r => (r.getInt(0), r.getInt(1), java.lang.Double.doubleToRawLongBits(r.getDouble(2)), r.getInt(3)))

  /** Coarse vectors, so many cosines tie exactly; one all-zero row. */
  private lazy val tied = embSe.map(_.map(x => math.rint(x * 2) / 2)).updated(11, Array.fill(embSe.head.length)(0.0))

  test("driver knn = the Spark k-NN job, row for row, ties included") {
    for (emb <- Seq(embSe, tied); (k, rel) <- Seq((1, 0), (5, 1), (12, 0), (200, 1))) {
      val got = CandidateGeneration.knn(emb, k).toSeq
        .map { case (u, v, sim) => (u, v, java.lang.Double.doubleToRawLongBits(sim), rel) }
      assert(got == bitRows(SparkKnn.knnEdges(spark, emb, k, rel)), s"k $k")
    }
    assert(CandidateGeneration.knn(embSe, 0).isEmpty && CandidateGeneration.knn(embSe.take(1), 3).isEmpty)
  }

  test("candidateGraph = the Spark canonicalising aggregate, sorted by (src, dst)") {
    for (emb <- Seq(embSe, tied)) {
      val cfg = CandidateGeneration.CandConfig(topKCooc = 6, topKSem = 5)
      val coarse = emb.map(_.map(x => math.rint(x * 4) / 4))
      val got = bitRows(CandidateGeneration.candidateGraph(spark, coarse, emb, cfg))
      assert(got == bitRows(SparkKnn.candidateGraph(spark, coarse, emb, cfg)).sorted)
      assert(got.map(e => (e._1, e._2)) == got.map(e => (e._1, e._2)).sorted)
    }
  }
}
