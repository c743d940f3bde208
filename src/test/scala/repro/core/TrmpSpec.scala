package repro.core

import repro.{SparkJobs, SparkSpec}
import repro.eval.Annotators
import repro.world.{EntityWorld, WorldConfig}
import repro.candidate.CandidateGeneration
import repro.embed.{SemanticEmbed, SkipGram}
import repro.linkpred.TestGraphs.bits
import repro.ner.BertCrfSim

class TrmpSpec extends SparkSpec {

  private lazy val world = new EntityWorld(WorldConfig(nEntities = 150, nTopics = 6, nUsers = 40, seed = 47))
  private lazy val cfg = Trmp.TrmpConfig(
    logCfg = repro.world.BehaviorGen.LogConfig(days = 8, sessionsPerDay = 2, mentionsPerSession = 4),
    candCfg = CandidateGeneration.CandConfig(topKCooc = 6, topKSem = 5),
    sgCfg = SkipGram.SgConfig(dim = 12, epochs = 2),
    alpcCfg = AlpcConfig(dim = 12, layers = 1, k = 4, epochs = 25),
    ensCfg = EnsembleConfig(epochs = 15, maxTrainPairs = 2000),
    weeks = 2, ensembleWindow = 2)
  private lazy val result = Trmp.run(spark, world, cfg)

  test("pipeline produces one run per week and one ensemble per week") {
    assert(result.weekly.length == 2)
    assert(result.ensembles.length == 2)
    assert(result.ensembles.map(_._1) == Seq(0, 1))
  }

  test("candidate stage yields a non-trivial graph") {
    result.weekly.foreach { wr =>
      val edges = wr.candidateEdges.count()
      assert(edges > world.cfg.nEntities, s"week ${wr.week}: only $edges candidate edges")
    }
  }

  test("ranking keeps a subset of candidate relations") {
    val wr = result.weekly.head
    val stages = Trmp.stageRelations(wr, None)
    assert(stages("ranked").length <= stages("candidate").length)
    assert(stages("ranked").nonEmpty, "ranking should keep something")
    val candSet = stages("candidate").toSet
    stages("ranked").foreach(p => assert(candSet.contains(p)))
  }

  test("ranking improves annotator-judged accuracy over candidates") {
    val wr = result.weekly.head
    val stages = Trmp.stageRelations(wr, None)
    val accCand = Annotators.evaluate(world, stages("candidate")).acc
    val accRank = Annotators.evaluate(world, stages("ranked")).acc
    assert(accRank >= accCand - 0.02,
      s"ranking should not hurt accuracy: cand=$accCand ranked=$accRank")
  }

  test("weekly runs differ (upstream drift is real)") {
    val e0 = result.weekly(0).candidateEdges.select("src", "dst")
    val e1 = result.weekly(1).candidateEdges.select("src", "dst")
    assert(e0.except(e1).count() > 0, "weeks produced identical candidate graphs")
  }

  test("ensemble relations are a subset of candidates") {
    val wr = result.weekly.last
    val ens = result.ensembles.last._2
    val stages = Trmp.stageRelations(wr, Some(ens))
    assert(stages.contains("ensemble"))
    val candSet = stages("candidate").toSet
    stages("ensemble").foreach(p => assert(candSet.contains(p)))
  }

  test("semantic embeddings feed features of the right width") {
    val wr = result.weekly.head
    assert(wr.data.featSe(0).length == cfg.semCfg.dim)
    assert(wr.data.featCo(0).length == cfg.sgCfg.dim)
  }

  test("a week rerun with the same config repeats its candidates, ALPC z and accepted relations") {
    val first = result.weekly(0)
    val again = Trmp.runWeek(spark, world, cfg, 0)
    def edges(wr: Trmp.WeeklyRun) = wr.candidateEdges.collect().toSeq
      .map(r => (r.getInt(0), r.getInt(1), java.lang.Double.doubleToRawLongBits(r.getDouble(2)), r.getInt(3)))
      .sorted
    assert(edges(again) == edges(first))
    assert(bits(again.alpc.z.data) == bits(first.alpc.z.data))
    def ranked(wr: Trmp.WeeklyRun) = Trmp.stageRelations(wr, None)("ranked").toSet
    assert(ranked(again) == ranked(first))
  }

  test("Trmp.run with no weeks fails naming the value") {
    val e = intercept[IllegalArgumentException](Trmp.run(spark, world, cfg.copy(weeks = 0)))
    assert(e.getMessage.contains("weeks = 0"), e.getMessage)
  }

  test("a week is bit-identical at 1, 7 and 64 shuffle partitions") {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    def week(parts: Int) = {
      spark.conf.set(key, parts.toString)
      try Trmp.runWeek(spark, world, cfg, 1) finally spark.conf.set(key, before)
    }
    def edges(wr: Trmp.WeeklyRun) = wr.candidateEdges.collect().toSeq
      .map(r => (r.getInt(0), r.getInt(1), java.lang.Double.doubleToRawLongBits(r.getDouble(2)), r.getInt(3)))
    def splitOf(wr: Trmp.WeeklyRun) = Seq(wr.data.trainPos, wr.data.trainNeg, wr.data.testPos, wr.data.testNeg)
      .map(_.toSeq)
    val ref = week(64)
    for (parts <- Seq(1, 7)) {
      val wr = week(parts)
      assert(edges(wr) == edges(ref), s"$parts partitions: G^C rows")
      assert(splitOf(wr) == splitOf(ref), s"$parts partitions: split")
      assert(wr.data.featCo.map(bits(_)).toSeq == ref.data.featCo.map(bits(_)).toSeq, s"$parts partitions: E^Co")
      assert(bits(wr.alpc.z.data) == bits(ref.alpc.z.data), s"$parts partitions: ALPC z")
    }
  }

  test("stage I from logs to SGNS pairs submits no Spark job") {
    val (pairs, jobs) = SparkJobs.count(spark) {
      val (flat, _, _, _) = Trmp.candidateStage(spark, world, cfg, 0)
      SkipGram.pairArray(flat, cfg.sgCfg.window)
    }
    assert(pairs.nonEmpty)
    assert(jobs == 0, s"$jobs Spark jobs")
  }
}
