package repro.ner

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.world.{BehaviorGen, EntityWorld, WorldConfig}

class NerSpec extends SparkSpec {

  private lazy val world = new EntityWorld(WorldConfig(nEntities = 120, nTopics = 6, nUsers = 15, seed = 23))
  private lazy val logCfg = BehaviorGen.LogConfig(days = 6, sessionsPerDay = 2, mentionsPerSession = 4)
  private lazy val logs = BehaviorGen.generate(spark, world, logCfg).cache()

  test("noise-free tagger recovers exactly the generated mentions") {
    val tagged = BertCrfSim.tag(spark, world, logs, BertCrfSim.NerConfig(pDrop = 0.0, pConfuse = 0.0))
    val expected = logs.count() * logCfg.mentionsPerSession
    assert(tagged.count() == expected)
  }

  test("noise-free tags match the entities named in the text") {
    val tagged = BertCrfSim.tag(spark, world, logs, BertCrfSim.NerConfig(pDrop = 0.0, pConfuse = 0.0))
      .collect()
    val byKey = logs.collect().map(r => (r.getInt(0), r.getInt(1), r.getInt(2)) -> r.getString(3)).toMap
    tagged.take(200).foreach { r =>
      val text = byKey((r.getInt(0), r.getInt(1), r.getInt(2)))
      val tok = text.split(' ')(r.getInt(3))
      assert(world.idOf(tok).contains(r.getInt(4)))
    }
  }

  test("pDrop removes roughly the configured fraction") {
    val full = BertCrfSim.tag(spark, world, logs, BertCrfSim.NerConfig(pDrop = 0.0, pConfuse = 0.0)).count()
    val dropped = BertCrfSim.tag(spark, world, logs, BertCrfSim.NerConfig(pDrop = 0.3, pConfuse = 0.0)).count()
    val rate = 1.0 - dropped.toDouble / full
    assert(rate > 0.2 && rate < 0.4, s"drop rate $rate should be near 0.3")
  }

  test("pConfuse rewrites some tags to other entities") {
    val clean = BertCrfSim.tag(spark, world, logs, BertCrfSim.NerConfig(pDrop = 0.0, pConfuse = 0.0))
    val noisy = BertCrfSim.tag(spark, world, logs, BertCrfSim.NerConfig(pDrop = 0.0, pConfuse = 0.25))
    val key = Seq("user_id", "day", "session", "pos")
    val joined = clean.withColumnRenamed("entity_id", "clean_id")
      .join(noisy.withColumnRenamed("entity_id", "noisy_id"), key)
    val changed = joined.filter(col("clean_id") =!= col("noisy_id")).count()
    val total = joined.count()
    val rate = changed.toDouble / total
    assert(rate > 0.1 && rate < 0.4, s"confusion rate $rate should be near 0.25")
  }

  test("tagging is deterministic") {
    val a = BertCrfSim.tag(spark, world, logs, BertCrfSim.NerConfig())
    val b = BertCrfSim.tag(spark, world, logs, BertCrfSim.NerConfig())
    assert(a.except(b).count() == 0 && b.except(a).count() == 0)
  }

  test("sequence extractor orders by (day, session, pos) — Oracle-checked counts") {
    val tagged = BertCrfSim.tag(spark, world, logs, BertCrfSim.NerConfig(pDrop = 0.0, pConfuse = 0.0)).cache()
    val seqs = EntitySequenceExtractor.extract(tagged)
    val flat = EntitySequenceExtractor.flattened(seqs)
    // per-user sequence length must equal the user's tag count
    val got = flat.groupBy("user_id").agg(count("*").as("n"))
    Oracle.assertEquivalent(got,
      "SELECT user_id, count(*) AS n FROM tagged GROUP BY user_id",
      "tagged" -> tagged)
  }

  test("sequence order is chronological") {
    val tagged = BertCrfSim.tag(spark, world, logs, BertCrfSim.NerConfig(pDrop = 0.0, pConfuse = 0.0))
    val seqs = EntitySequenceExtractor.extract(tagged)
    val row = seqs.filter(col("user_id") === 0).head
    val seq = row.getSeq[Int](1)
    val expected = tagged.filter(col("user_id") === 0)
      .orderBy("day", "session", "pos").select("entity_id").collect().map(_.getInt(0)).toSeq
    assert(seq == expected)
  }

  test("a log with no tagged entity extracts no sequences") {
    // no token of this text is a dict entity name
    val untagged = BertCrfSim.tag(spark, world, logs.withColumn("text", lit("nothing to see here")))
    assert(untagged.isEmpty)
    val seqs = EntitySequenceExtractor.extract(untagged)
    assert(seqs.schema == EntitySequenceExtractor.extract(BertCrfSim.tag(spark, world, logs)).schema)
    assert(seqs.isEmpty && EntitySequenceExtractor.flattened(seqs).isEmpty)
  }

  test("window filtering drops days outside the last 30") {
    // shift some rows to day 100 so earlier days fall out of the window
    val shifted = logs.withColumn("day", when(col("day") === 0, 100).otherwise(col("day")))
    val tagged = BertCrfSim.tag(spark, world, shifted, BertCrfSim.NerConfig(pDrop = 0.0, pConfuse = 0.0))
    val seqs = EntitySequenceExtractor.extract(tagged, windowDays = 30)
    val flat = EntitySequenceExtractor.flattened(seqs)
    val kept = flat.join(tagged.select("user_id").distinct(), Seq("user_id")).count()
    val inWindow = tagged.filter(col("day") > 100 - 30).count()
    assert(kept == inWindow, s"kept=$kept expected=$inWindow")
  }

  /** Asserts equal schemas and equal rows, compared after sorting. */
  private def sameRows(driver: DataFrame, oracle: DataFrame, what: String): Unit = {
    assert(driver.schema == oracle.schema, s"$what schema")
    def rows(df: DataFrame) = df.collect().map(_.toSeq).sortBy(_.toString).toSeq
    assert(rows(driver) == rows(oracle), s"$what rows")
  }

  /** Driver stage I = the Spark form at each step (tags, sequences, flattened view). */
  private def assertStageIMatchesSpark(log: DataFrame, cfg: BertCrfSim.NerConfig): Unit = {
    val tagged = BertCrfSim.tag(spark, world, log, cfg)
    val oracleTagged = SparkNer.tag(spark, world, log, cfg)
    sameRows(tagged, oracleTagged, "tags")
    val seqs = EntitySequenceExtractor.extract(tagged)
    val oracleSeqs = SparkNer.extract(oracleTagged)
    sameRows(seqs, oracleSeqs, "sequences")
    sameRows(EntitySequenceExtractor.flattened(seqs), SparkNer.flattened(oracleSeqs), "flattened")
  }

  test("driver stage I = the Spark form on a noisy tagger, tags in (row, pos) order") {
    val cfg = BertCrfSim.NerConfig(pDrop = 0.3, pConfuse = 0.25)
    assertStageIMatchesSpark(logs, cfg)
    val tags = BertCrfSim.tag(spark, world, logs, cfg).collect().map(_.toSeq).toSeq
    assert(tags == SparkNer.tag(spark, world, logs, cfg).collect().map(_.toSeq).toSeq)
  }

  test("driver stage I = the Spark form on a day-shifted log (window drops early days)") {
    assertStageIMatchesSpark(logs.withColumn("day", when(col("day") === 0, 100).otherwise(col("day"))),
      BertCrfSim.NerConfig(pDrop = 0.1, pConfuse = 0.1))
  }

  test("driver stage I = the Spark form on a log with no dict token") {
    assertStageIMatchesSpark(logs.withColumn("text", lit("nothing to see here")), BertCrfSim.NerConfig())
  }

  test("a behavior with null text tags nothing") {
    val noiseFree = BertCrfSim.NerConfig(pDrop = 0.0, pConfuse = 0.0)
    val withNull = logs.withColumn("text", when(col("user_id") === 0, lit(null).cast("string")).otherwise(col("text")))
    val tagged = BertCrfSim.tag(spark, world, withNull, noiseFree)
    val want = BertCrfSim.tag(spark, world, logs, noiseFree).filter(col("user_id") =!= 0)
    assert(tagged.collect().toSeq == want.collect().toSeq)
  }

  test("extract with a non-positive window fails naming the value") {
    val tagged = BertCrfSim.tag(spark, world, logs)
    for (w <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException](EntitySequenceExtractor.extract(tagged, windowDays = w))
      assert(e.getMessage.contains(s"windowDays = $w"), e.getMessage)
    }
  }
}
