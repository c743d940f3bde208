package repro.online

import org.apache.spark.sql.functions._
import repro.SparkSpec
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
}
