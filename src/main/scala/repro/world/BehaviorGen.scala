package repro.world

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{IntegerType, StringType, StructField, StructType}
import scala.util.Random

/** Generates raw user behavior logs — the stand-in for Alipay search/visit
  * logs that feed the entity sequence extractor.
  *
  * Each user emits a few sessions per day for 30 days. A session samples a
  * topic from the user's interest mix and produces a short text: entity-name
  * tokens from that topic (popularity-weighted) interleaved with filler
  * vocabulary. Entities of the same topic therefore co-occur within
  * sessions, which is the signal Skip-gram later recovers.
  *
  * `weekSeed` shifts the sampling so different "weeks" of logs have the same
  * distribution family but different realisations — that drift is what the
  * paper's ensemble stage is built to absorb.
  */
object BehaviorGen {

  private val Filler = Array("open", "pay", "find", "the", "best", "near", "buy", "ticket", "shop", "app")

  final case class LogConfig(
      days: Int = 30,
      sessionsPerDay: Int = 2,
      mentionsPerSession: Int = 5,
      /** prob a session mixes in one entity from a random other topic (noise) */
      crossTopicNoise: Double = 0.12,
      weekSeed: Long = 0L,
  )

  /** Per-user activity multiplier (deterministic): users differ 1×–3× in how
    * many sessions they emit. Activity volume is independent of interest
    * strength — the confound that makes hit-count rules mis-rank users.
    */
  def sessionsFor(world: EntityWorld, user: Int, logCfg: LogConfig): Int = {
    val r = new Random(world.cfg.seed * 61 + user * 977L)
    logCfg.sessionsPerDay * (1 + r.nextInt(3))
  }

  /** Raw behavior rows: (user_id, day, session, text). */
  def generate(spark: SparkSession, world: EntityWorld, logCfg: LogConfig = LogConfig()): DataFrame = {
    val cfg = world.cfg
    // group entities by topic with cumulative popularity for weighted draws
    val byTopic: Map[Int, Array[EntityInfo]] =
      world.entities.groupBy(_.topic).map { case (t, es) => t -> es.sortBy(-_.popularity) }
    val rows = for {
      u <- 0 until cfg.nUsers
      day <- 0 until logCfg.days
      s <- 0 until sessionsFor(world, u, logCfg)
    } yield {
      val r = new Random(cfg.seed * 7919 + logCfg.weekSeed * 104729 + u * 1_000_003L + day * 101L + s)
      val user = world.users(u)
      val topic = sampleCategorical(user.topicMix, r)
      val pool = byTopic(topic)
      val sb = new StringBuilder
      var m = 0
      while (m < logCfg.mentionsPerSession) {
        if (m > 0) sb += ' '
        sb ++= Filler(r.nextInt(Filler.length))
        sb += ' '
        val ent =
          if (r.nextDouble() < logCfg.crossTopicNoise) {
            val other = byTopic(r.nextInt(cfg.nTopics))
            sampleByPopularity(other, r)
          } else sampleByPopularity(pool, r)
        sb ++= ent.name
        m += 1
      }
      Row(u, day, s, sb.toString)
    }
    spark.createDataFrame(java.util.Arrays.asList(rows: _*), Schema)
  }

  /** The schema of `generate`'s rows, the one the `(Int, Int, Int, String)`
    * tuple encoder gives.
    */
  private val Schema = StructType(Seq(
    StructField("user_id", IntegerType, nullable = false),
    StructField("day", IntegerType, nullable = false),
    StructField("session", IntegerType, nullable = false),
    StructField("text", StringType, nullable = true)))

  private def sampleCategorical(probs: Array[Double], r: Random): Int = {
    val x = r.nextDouble()
    var acc = 0.0
    var i = 0
    while (i < probs.length) {
      acc += probs(i)
      if (x < acc) return i
      i += 1
    }
    probs.length - 1
  }

  private def sampleByPopularity(pool: Array[EntityInfo], r: Random): EntityInfo = {
    val total = pool.map(_.popularity).sum
    val x = r.nextDouble() * total
    var acc = 0.0
    var i = 0
    while (i < pool.length) {
      acc += pool(i).popularity
      if (x < acc) return pool(i)
      i += 1
    }
    pool.last
  }
}
