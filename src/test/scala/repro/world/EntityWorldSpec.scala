package repro.world

import repro.SparkSpec

class EntityWorldSpec extends SparkSpec {

  private lazy val world = new EntityWorld(WorldConfig(nEntities = 200, nTopics = 8, nUsers = 50, seed = 11))

  test("world is deterministic in the seed") {
    val w2 = new EntityWorld(WorldConfig(nEntities = 200, nTopics = 8, nUsers = 50, seed = 11))
    assert(world.entities.map(_.name).sameElements(w2.entities.map(_.name)))
    assert(world.entities(17).latent.sameElements(w2.entities(17).latent))
    assert(world.users(3).latent.sameElements(w2.users(3).latent))
  }

  test("different seeds give different latents") {
    val w2 = new EntityWorld(WorldConfig(nEntities = 200, nTopics = 8, nUsers = 50, seed = 12))
    assert(!world.entities(0).latent.sameElements(w2.entities(0).latent))
  }

  test("entity latents are unit-norm") {
    world.entities.take(20).foreach { e =>
      val n = math.sqrt(e.latent.map(x => x * x).sum)
      assert(math.abs(n - 1.0) < 1e-9)
    }
  }

  test("same-topic pairs are far more related than cross-topic pairs") {
    val sameTopic = (0 until 8).flatMap { t =>
      val es = world.entities.filter(_.topic == t).take(5).toSeq
      for (a <- es; b <- es if a.id < b.id) yield world.relatedness(a.id, b.id)
    }
    val head40 = world.entities.take(40).toSeq
    val crossTopic = for (a <- head40; b <- head40 if a.id < b.id && a.topic != b.topic)
      yield world.relatedness(a.id, b.id)
    val sameAvg = sameTopic.sum / sameTopic.size
    val crossAvg = crossTopic.sum / crossTopic.size
    assert(sameAvg > crossAvg + 0.3, s"same=$sameAvg cross=$crossAvg")
  }

  test("user topic mixes are normalised distributions") {
    world.users.foreach { u =>
      assert(math.abs(u.topicMix.sum - 1.0) < 1e-9)
      assert(u.topicMix.forall(_ >= 0))
    }
  }

  test("user affinity is higher for entities of preferred topics") {
    val u = world.users(0)
    val topTopic = u.topicMix.zipWithIndex.maxBy(_._1)._2
    val zeroTopics = u.topicMix.zipWithIndex.filter(_._1 == 0.0).map(_._2).toSet
    assume(zeroTopics.nonEmpty)
    val prefAff = world.entities.filter(_.topic == topTopic).map(e => world.affinity(0, e.id))
    val otherAff = world.entities.filter(e => zeroTopics.contains(e.topic)).map(e => world.affinity(0, e.id))
    assert(prefAff.sum / prefAff.length > otherAff.sum / otherAff.length + 0.2)
  }

  test("entity types stay within the 26-type dict") {
    assert(world.entities.forall(e => e.etype >= 0 && e.etype < 26))
  }

  test("popularity is zipf-decreasing within a topic") {
    val t0 = world.entities.filter(_.topic == 0).sortBy(_.id).toSeq
    assert(t0.sliding(2).forall(w => w.head.popularity >= w.last.popularity))
  }

  test("idOf inverts names") {
    world.entities.take(10).foreach(e => assert(world.idOf(e.name).contains(e.id)))
    assert(world.idOf("nope").isEmpty)
  }

  test("cosine helper: orthogonal, identical, zero vectors") {
    assert(EntityWorld.cosine(Array(1.0, 0.0), Array(0.0, 1.0)) == 0.0)
    assert(math.abs(EntityWorld.cosine(Array(1.0, 2.0), Array(1.0, 2.0)) - 1.0) < 1e-12)
    assert(EntityWorld.cosine(Array(0.0, 0.0), Array(1.0, 1.0)) == 0.0)
  }
}
