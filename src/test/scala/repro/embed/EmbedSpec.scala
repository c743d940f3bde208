package repro.embed

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.ner.{BertCrfSim, EntitySequenceExtractor}
import repro.world.{BehaviorGen, EntityWorld, WorldConfig}

class EmbedSpec extends SparkSpec {

  private lazy val world = new EntityWorld(WorldConfig(nEntities = 120, nTopics = 6, nUsers = 25, seed = 31))
  private lazy val flat = {
    val logs = BehaviorGen.generate(spark, world,
      BehaviorGen.LogConfig(days = 8, sessionsPerDay = 2, mentionsPerSession = 5))
    val tagged = BertCrfSim.tag(spark, world, logs, BertCrfSim.NerConfig(pDrop = 0.02, pConfuse = 0.01))
    EntitySequenceExtractor.flattened(EntitySequenceExtractor.extract(tagged)).cache()
  }

  test("skip-gram pair generation matches DuckDB window self-join") {
    val pairs = SkipGram.pairs(flat, window = 2)
    val got = pairs.groupBy("center").agg(count("*").as("n"))
    Oracle.assertEquivalent(got,
      """SELECT a.entity_id AS center, count(*) AS n
        |FROM flat a JOIN flat b
        |  ON a.user_id = b.user_id
        | AND a.rank <> b.rank
        | AND abs(CAST(a.rank AS INT) - CAST(b.rank AS INT)) <= 2
        |GROUP BY a.entity_id""".stripMargin,
      "flat" -> flat)
  }

  test("pair generation is symmetric: (c,x) implies (x,c)") {
    val pairs = SkipGram.pairs(flat, window = 2).cache()
    val flipped = pairs.select(col("context").as("center"), col("center").as("context"))
    assert(pairs.except(flipped).count() == 0)
  }

  test("SGNS embeddings cluster by topic") {
    val emb = SkipGram.train(flat, world.cfg.nEntities,
      SkipGram.SgConfig(dim = 16, epochs = 3, seed = 5))
    // compare mean same-topic vs cross-topic cosine over frequent entities
    val freq = flat.groupBy("entity_id").count().filter(col("count") >= 5)
      .collect().map(_.getInt(0))
    val pairsSample = for (i <- freq.indices; j <- i + 1 until freq.length) yield (freq(i), freq(j))
    val (same, cross) = pairsSample.partition { case (a, b) =>
      world.entities(a).topic == world.entities(b).topic
    }
    def avgCos(ps: Seq[(Int, Int)]) =
      ps.map { case (a, b) => EntityWorld.cosine(emb(a), emb(b)) }.sum / ps.size
    assert(same.nonEmpty && cross.nonEmpty)
    assert(avgCos(same) > avgCos(cross) + 0.15,
      s"same=${avgCos(same)} cross=${avgCos(cross)}")
  }

  test("SGNS is deterministic in its seed") {
    val ps = Array((1, 2), (2, 3), (3, 1), (1, 3))
    val a = SkipGram.trainOnPairs(ps, 5, SkipGram.SgConfig(dim = 4, epochs = 2, seed = 9))
    val b = SkipGram.trainOnPairs(ps, 5, SkipGram.SgConfig(dim = 4, epochs = 2, seed = 9))
    assert(a(1).sameElements(b(1)))
  }

  test("semantic embeddings are unit-norm and deterministic") {
    val e1 = SemanticEmbed.embed(world)
    val e2 = SemanticEmbed.embed(world)
    e1.take(10).foreach(v => assert(math.abs(math.sqrt(v.map(x => x * x).sum) - 1.0) < 1e-9))
    assert(e1(7).sameElements(e2(7)))
  }

  test("semantic similarity tracks latent relatedness when signal is high") {
    val embHi = SemanticEmbed.embed(world, SemanticEmbed.SemConfig(signal = 0.9, noise = 0.05))
    val (sameTopic, cross) = topicSplitCosines(embHi)
    assert(sameTopic.sum / sameTopic.size > cross.sum / cross.size + 0.2)
  }

  test("lowering the signal degrades the topical structure") {
    def separation(signal: Double): Double = {
      val e = SemanticEmbed.embed(world, SemanticEmbed.SemConfig(signal = signal, noise = 0.1, seed = 3))
      val (same, cross) = topicSplitCosines(e)
      same.sum / same.size - cross.sum / cross.size
    }
    // entity names encode the topic, so even low-signal embeddings retain
    // some structure via the n-gram features — the gap is real but modest
    assert(separation(0.9) > separation(0.2) + 0.02)
  }

  /** (same-topic cosines, cross-topic cosines) over a sample of entity pairs. */
  private def topicSplitCosines(e: Array[Array[Double]]): (Seq[Double], Seq[Double]) = {
    val same = (0 until 6).flatMap { t =>
      val es = world.entities.filter(_.topic == t).take(4).toSeq
      for (a <- es; b <- es if a.id < b.id) yield EntityWorld.cosine(e(a.id), e(b.id))
    }
    val head30 = world.entities.take(30).toSeq
    val cross = for (a <- head30; b <- head30 if a.id < b.id && a.topic != b.topic)
      yield EntityWorld.cosine(e(a.id), e(b.id))
    (same, cross)
  }

  test("ngram features are deterministic per name and normalised") {
    val a = SemanticEmbed.ngramFeatures("ent_t1_n17", 16)
    val b = SemanticEmbed.ngramFeatures("ent_t1_n17", 16)
    assert(a.sameElements(b))
    assert(math.abs(math.sqrt(a.map(x => x * x).sum) - 1.0) < 1e-9)
  }

  test("window pairs are the self-join's multiset, in (user, center rank, context rank) order") {
    for (w <- Seq(1, 2, 3)) {
      val want = SparkSkipGramPairs.pairs(flat, w).collect()
        .map(r => ((r.getInt(0), r.getInt(1), r.getInt(2)), (r.getInt(3), r.getInt(4))))
        .sortBy(_._1).map(_._2)
      val got = SkipGram.pairArray(flat, w)
      assert(got.length == want.length, s"window $w")
      assert(got.sameElements(want), s"window $w: pairs differ from the canonical self-join order")
    }
    val rows = SkipGram.pairs(flat, 2).collect().map(r => (r.getInt(0), r.getInt(1)))
    assert(rows.sameElements(SkipGram.pairArray(flat, 2)))
  }

  test("window pairs do not depend on the row layout; a repeated rank is rejected") {
    val base = SkipGram.pairArray(flat, 2)
    assert(SkipGram.pairArray(flat.repartition(7), 2).sameElements(base))
    assert(SkipGram.pairArray(flat.orderBy(rand(3)), 2).sameElements(base))
    import spark.implicits._
    val dup = Seq((1, 0, 5), (1, 0, 6), (2, 0, 7)).toDF("user_id", "rank", "entity_id")
    val e = intercept[IllegalArgumentException](SkipGram.pairArray(dup, 2))
    assert(e.getMessage.contains("user 1 repeats rank 0"), e.getMessage)
    assert(SkipGram.pairArray(flat.limit(0), 2).isEmpty)
  }
}
