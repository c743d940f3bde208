package repro.ner

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.world.EntityWorld

/** Test oracle for `BertCrfSim.tag`, `EntitySequenceExtractor.extract` and
  * `flattened`: stage I as Spark jobs. The dict is broadcast and tagging runs
  * in a UDF over the behavior DataFrame; the window is a max-day job and a
  * filter, each sequence a `sort_array` of a `collect_list` of
  * ((day, session, pos), entity_id) structs, and the flattened view a
  * `posexplode`.
  */
object SparkNer {

  def tag(spark: SparkSession, world: EntityWorld, behaviors: DataFrame,
          cfg: BertCrfSim.NerConfig = BertCrfSim.NerConfig()): DataFrame = {
    val dict: Map[String, Int] = world.entities.map(e => e.name -> e.id).toMap
    val nEntities = world.cfg.nEntities
    val bDict = spark.sparkContext.broadcast(dict)
    val pDrop = cfg.pDrop; val pConfuse = cfg.pConfuse; val seed = cfg.seed

    val tagUdf = udf { (user: Int, day: Int, session: Int, text: String) =>
      val d = bDict.value
      val out = scala.collection.mutable.ArrayBuffer[(Int, Int)]()
      var pos = 0
      text.split(' ').foreach { tok =>
        d.get(tok).foreach { id =>
          val r = new scala.util.Random(seed ^ (user * 1_000_003L + day * 10_007L + session * 101L + pos))
          val roll = r.nextDouble()
          if (roll >= pDrop) {
            val id2 = if (roll < pDrop + pConfuse) r.nextInt(nEntities) else id
            out += ((pos, id2))
          }
        }
        pos += 1
      }
      out.toSeq
    }

    behaviors
      .withColumn("tags", tagUdf(col("user_id"), col("day"), col("session"), col("text")))
      .select(col("user_id"), col("day"), col("session"), explode(col("tags")).as("tag"))
      .select(col("user_id"), col("day"), col("session"),
              col("tag._1").as("pos"), col("tag._2").as("entity_id"))
  }

  def extract(tagged: DataFrame, windowDays: Int = 30): DataFrame = {
    val maxDay = tagged.agg(max("day")).head()
    tagged
      .filter(if (maxDay.isNullAt(0)) lit(false) else col("day") > maxDay.getInt(0) - windowDays)
      .withColumn("ord", struct(col("day"), col("session"), col("pos")))
      .groupBy("user_id")
      .agg(sort_array(collect_list(struct(col("ord"), col("entity_id")))).as("pairs"))
      .select(col("user_id"), expr("transform(pairs, p -> p.entity_id)").as("seq"))
  }

  def flattened(sequences: DataFrame): DataFrame =
    sequences.select(col("user_id"), posexplode(col("seq")).as(Seq("rank", "entity_id")))
}
