package repro.online

import org.apache.spark.sql.functions._
import repro.{SparkJobs, SparkSpec}
import repro.preference.UserPreference
import repro.storage.GraphStore
import repro.world.{EntityWorld, WorldConfig}
import java.nio.file.Files

class TargetingSpec extends SparkSpec {

  private lazy val world = new EntityWorld(WorldConfig(nEntities = 60, nTopics = 4, nUsers = 30, seed = 53))

  // a hand-built entity graph: ring within each topic
  private lazy val store = {
    import spark.implicits._
    val s = new GraphStore(spark, Files.createTempDirectory("tg").resolve("e").toString)
    val byTopic = world.entities.groupBy(_.topic)
    val edges = byTopic.values.flatMap { es =>
      val ids = es.map(_.id).sorted
      ids.zip(ids.tail :+ ids.head).map { case (a, b) => (a, b, 0.9) }
    }.toSeq
    s.write(edges.toDF("src", "dst", "score"))
    s
  }

  // entity embeddings = latent vectors; user embedding from a synthetic sequence
  private lazy val entityEmb = UserPreference.embeddingsDf(spark, world.entities.map(_.latent))
  private lazy val userEmb = UserPreference.embeddingsDf(spark, world.users.map(_.latent))
    .withColumnRenamed("entity_id", "user_id")

  test("targeting returns at most topK users, sorted by preference") {
    val seed = world.entities.find(_.topic == 1).get
    val res = Targeting.target(spark, world, store, userEmb, entityEmb,
      Seq(seed.name), k = 2, topKUsers = 10)
    assert(res.targetUsers.length == 10)
    assert(res.targetUsers.sliding(2).forall(w => w.head._2 >= w.last._2))
    assert(res.runtimeMillis > 0)
  }

  test("expansion stays within the seed's connected component (its topic ring)") {
    val seed = world.entities.find(_.topic == 2).get
    val res = Targeting.target(spark, world, store, userEmb, entityEmb,
      Seq(seed.name), k = 3, topKUsers = 5)
    val expanded = res.expandedEntities.select("entity_id").collect().map(_.getInt(0))
    expanded.foreach(e => assert(world.entities(e).topic == 2, s"entity $e escaped the topic ring"))
  }

  test("targeted users prefer the service topic") {
    val topic = 0
    val seed = world.entities.filter(_.topic == topic).minBy(_.id)
    val res = Targeting.target(spark, world, store, userEmb, entityEmb,
      Seq(seed.name), k = 3, topKUsers = 8)
    val targeted = res.targetUsers.map(_._1).toSet
    val affTargeted = targeted.toSeq.map(u => EntityWorld.cosine(world.users(u).latent, world.topicCentroids(topic)))
    val affOthers = (0 until 30).filterNot(targeted).map(u =>
      EntityWorld.cosine(world.users(u).latent, world.topicCentroids(topic)))
    assert(affTargeted.sum / affTargeted.size > affOthers.sum / affOthers.size,
      "targeted users should have higher affinity to the service topic")
  }

  test("unknown phrases are rejected") {
    intercept[IllegalArgumentException] {
      Targeting.target(spark, world, store, userEmb, entityEmb, Seq("garbage"), 2, 5)
    }
    // a known phrase whose seed, or an expanded entity, has no embedding row
    val seed = world.entities.find(_.topic == 1).get
    val neighbour = world.entities.filter(e => e.topic == 1 && e.id != seed.id).minBy(_.id).id
    Seq(seed.id, neighbour).foreach { missing =>
      val e = intercept[IllegalArgumentException] {
        Targeting.target(spark, world, store, userEmb, entityEmb.filter(col("entity_id") =!= missing),
          Seq(seed.name), k = 3, topKUsers = 5)
      }
      assert(e.getMessage.contains(missing.toString), e.getMessage)
    }
  }

  test("k < 0 fails with a require naming k") {
    val seed = world.entities.find(_.topic == 1).get
    val e = intercept[IllegalArgumentException] {
      Targeting.target(spark, world, store, userEmb, entityEmb, Seq(seed.name), k = -1, topKUsers = 5)
    }
    assert(e.getMessage.contains("k = -1"), e.getMessage)
  }

  test("topKUsers <= 0 or maxEntities <= 0 exports nobody") {
    val seed = world.entities.find(_.topic == 1).get
    for ((topK, maxEntities) <- Seq((0, 25), (-3, 25), (5, 0), (5, -1))) {
      val res = Targeting.target(spark, world, store, userEmb, entityEmb, Seq(seed.name), 2, topK, maxEntities)
      assert(res.targetUsers.isEmpty, s"topK $topK, maxEntities $maxEntities: ${res.targetUsers.toSeq}")
    }
  }

  test("topKUsers > #users exports every user once") {
    val seed = world.entities.find(_.topic == 3).get
    val res = Targeting.target(spark, world, store, userEmb, entityEmb, Seq(seed.name), k = 2, topKUsers = 100)
    assert(res.targetUsers.map(_._1).sorted.toSeq == (0 until 30))
  }

  test("a seed with no edges is targeted alone at hop 0") {
    import spark.implicits._
    // a graph over topic 0 only: the topic-1 seed has no edges
    val topic0 = world.entities.filter(_.topic == 0).map(_.id).sorted
    val s = new GraphStore(spark, Files.createTempDirectory("tg").resolve("e").toString)
    s.write(topic0.zip(topic0.tail).map { case (a, b) => (a, b, 0.9) }.toSeq.toDF("src", "dst", "score"))
    val seed = world.entities.find(_.topic == 1).get
    val res = Targeting.target(spark, world, s, userEmb, entityEmb, Seq(seed.name), k = 3, topKUsers = 5)
    val expanded = res.expandedEntities.collect().map(r => (r.getInt(0), r.getInt(1), r.getDouble(2)))
    assert(expanded.toSeq == Seq((seed.id, 0, 1.0)))
    assert(res.selectedEntities == Seq(seed.id) && res.targetUsers.length == 5)
  }

  test("driver top-K equals Spark preferenceScores → avg → orderBy, for any partitioning") {
    val seed = world.entities.find(_.topic == 2).get
    for (parts <- Seq(7, 64); topK <- Seq(12, 30)) {
      val users = userEmb.repartition(parts)
      val res = Targeting.target(spark, world, store, users, entityEmb, Seq(seed.name), k = 3, topKUsers = topK)
      val oracle = UserPreference.preferenceScores(spark, users, entityEmb, res.selectedEntities)
        .groupBy("user_id").agg(avg("score").as("pref"))
        .orderBy(desc("pref"), asc("user_id")).limit(topK)
        .collect().map(r => (r.getInt(0), r.getDouble(1)))
      assert(res.targetUsers.map(_._1).toSeq == oracle.map(_._1).toSeq, s"$parts partitions, top $topK")
      res.targetUsers.zip(oracle).foreach { case ((u, got), (_, want)) =>
        assert(math.abs(got - want) < 1e-12, s"user $u: $got vs $want")
      }
    }
  }

  test("rule-based targeting ranks users by typed-entity hits") {
    import spark.implicits._
    // user 0 heavy on type-0 entities, user 1 light
    val typed = world.entities.filter(_.etype == 0).map(_.id)
    assume(typed.length >= 2)
    val flat = (Seq.fill(5)(typed(0)).zipWithIndex.map { case (e, i) => (0, i, e) } ++
      Seq((1, 0, typed(1)), (1, 1, world.entities.find(_.etype != 0).get.id)))
      .toDF("user_id", "rank", "entity_id")
    val top = Targeting.ruleBasedTarget(spark, world, flat, serviceType = 0, topKUsers = 2)
    assert(top.head == 0, "heaviest type-hitter should rank first")
  }

  test("rule-based ties on hits and rate go to the lower user id, for any row layout") {
    import spark.implicits._
    val typed = world.entities.find(_.etype == 0).get.id
    val other = world.entities.find(_.etype != 0).get.id
    // user 5 leads with 3 typed hits of 4; users 3, 8, 12, 17 tie at 2 of 4; the rest tie at 0
    val flat = (0 until 20).flatMap { u =>
      val hits = if (u == 5) 3 else if (Set(3, 8, 12, 17)(u)) 2 else 0
      (0 until 4).map(r => (u, r, if (r < hits) typed else other))
    }.toDF("user_id", "rank", "entity_id")
    for ((layout, name) <- Seq(flat -> "as built", flat.repartition(7) -> "7 partitions",
                               flat.orderBy(rand(11)) -> "random order")) {
      val top = Targeting.ruleBasedTarget(spark, world, layout, serviceType = 0, topKUsers = 7)
      assert(top.toSeq == Seq(5, 3, 8, 12, 17, 0, 1), name)
    }
  }

  test("a user with no sequence rows, or only unembedded entities, is never exported") {
    import spark.implicits._
    // entity ids from 60 up have no embedding row; users 0 and 1 have no sequence rows
    val rng = new scala.util.Random(5)
    val flat = (2 until 30).flatMap { u =>
      if (u % 5 == 0) Seq((u, 0, 60 + u), (u, 1, 99))
      else (0 until 4).map(r => (u, r, rng.nextInt(60)))
    }.toDF("user_id", "rank", "entity_id")
    val users = UserPreference.userEmbeddings(flat, entityEmb)
    val embedded = (2 until 30).filter(_ % 5 != 0)
    assert(users.collect().map(_.getInt(0)).toSeq == embedded)
    val seed = world.entities.find(_.topic == 1).get
    val res = Targeting.target(spark, world, store, users, entityEmb, Seq(seed.name), k = 2, topKUsers = 100)
    assert(res.targetUsers.map(_._1).sorted.toSeq == embedded)
  }

  test("k = 0 targets by the seeds alone, end to end") {
    val seeds = world.entities.filter(_.topic == 2).sortBy(_.id).take(2)
    val res = Targeting.target(spark, world, store, userEmb, entityEmb, seeds.map(_.name).toSeq, k = 0, topKUsers = 7)
    val expanded = res.expandedEntities.collect().map(r => (r.getInt(0), r.getInt(1), r.getDouble(2)))
    assert(expanded.toSet == seeds.map(e => (e.id, 0, 1.0)).toSet)
    assert(res.selectedEntities.toSet == seeds.map(_.id).toSet)
    val entities = UserPreference.resident(entityEmb)
    val want = UserPreference.topUsers(UserPreference.resident(userEmb), res.selectedEntities.map(entities(_)), 7)
    assert(res.targetUsers.toSeq == want.toSeq && res.targetUsers.length == 7)
  }

  test("the first request on frames fresh from embeddingsDf and userEmbeddings submits no Spark job") {
    import spark.implicits._
    val rng = new scala.util.Random(6)
    val flat = (0 until 30).flatMap(u => (0 until 5).map(r => (u, r, rng.nextInt(60))))
      .toDF("user_id", "rank", "entity_id")
    // cached, as a serving layer keeps them: a collect decode would then run the caching job
    val entities = UserPreference.embeddingsDf(spark, world.entities.map(_.latent)).cache()
    val users = UserPreference.userEmbeddings(flat, entities).cache()
    val seed = world.entities.find(_.topic == 3).get
    store.expand(Seq(seed.id), 1) // the store's write leaves its graph resident
    val (res, jobs) = SparkJobs.count(spark) {
      Targeting.target(spark, world, store, users, entities, Seq(seed.name), k = 2, topKUsers = 10)
    }
    assert(jobs == 0, s"$jobs Spark jobs")
    val decoded = Targeting.target(spark, world, store, users.select("*"), entities.select("*"),
      Seq(seed.name), k = 2, topKUsers = 10)
    assert(res.targetUsers.toSeq == decoded.targetUsers.toSeq && res.targetUsers.length == 10)
    users.unpersist(); entities.unpersist()
  }
}
