package repro.ner

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import repro.world.EntityWorld

/** Stand-in for the paper's pre-trained BertCRF entity tagger.
  *
  * The real system runs BERT+CRF NER over behavior text; downstream modules
  * only ever see the resulting entity list per behavior. We reproduce that
  * interface with dictionary matching over the generated text plus an
  * explicit noise model approximating NER imperfection:
  *   - a match is dropped with probability `pDrop` (recall < 1), and
  *   - a match is confused with a random dict entity with probability
  *     `pConfuse` (precision < 1).
  * Noise is deterministic in (seed, user, day, session, position) so the
  * whole pipeline is reproducible.
  *
  * Runs on the driver: the behaviors are collected (a local relation, as
  * `BehaviorGen.generate` builds, collects without a Spark job), tagged
  * against the dict, and returned as a local relation. The tests check it
  * against the broadcast-UDF form of the same tagger.
  */
object BertCrfSim {

  final case class NerConfig(pDrop: Double = 0.05, pConfuse: Double = 0.03, seed: Long = 17L)

  /** The schema of `tag`'s rows, the one the broadcast-UDF tagger's
    * `explode` of (pos, entity_id) structs gives.
    */
  private val Schema = StructType(Seq(
    StructField("user_id", IntegerType, nullable = false),
    StructField("day", IntegerType, nullable = false),
    StructField("session", IntegerType, nullable = false),
    StructField("pos", IntegerType, nullable = true),
    StructField("entity_id", IntegerType, nullable = true)))

  /** Input: (user_id, day, session, text); output: (user_id, day, session, pos,
    * entity_id), in input row order and then by token position. A behavior
    * with null text tags nothing.
    */
  def tag(spark: SparkSession, world: EntityWorld, behaviors: DataFrame,
          cfg: NerConfig = NerConfig()): DataFrame = {
    val dict: Map[String, Int] = world.entities.map(e => e.name -> e.id).toMap
    val nEntities = world.cfg.nEntities
    val out = new java.util.ArrayList[Row]()
    behaviors.select("user_id", "day", "session", "text").collect().foreach { r =>
      val (user, day, session, text) = (r.getInt(0), r.getInt(1), r.getInt(2), r.getString(3))
      if (text != null) {
        var pos = 0
        text.split(' ').foreach { tok =>
          dict.get(tok).foreach { id =>
            val rnd = new scala.util.Random(cfg.seed ^ (user * 1_000_003L + day * 10_007L + session * 101L + pos))
            val roll = rnd.nextDouble()
            if (roll >= cfg.pDrop) {
              val id2 = if (roll < cfg.pDrop + cfg.pConfuse) rnd.nextInt(nEntities) else id
              out.add(Row(user, day, session, pos, id2))
            }
          }
          pos += 1
        }
      }
    }
    spark.createDataFrame(out, Schema)
  }
}
