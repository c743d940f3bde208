package repro.ner

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Entity sequence extractor (paper §III-A): collects the tagged entities of
  * each user's last 30 days and concatenates them chronologically into one
  * entity sequence per user. Pure DataFrame transformations.
  */
object EntitySequenceExtractor {

  /** Input: tagged behaviors (user_id, day, session, pos, entity_id).
    * Output: (user_id, seq: array<int>) ordered by (day, session, pos); no
    * rows when no behavior was tagged with an entity.
    */
  def extract(tagged: DataFrame, windowDays: Int = 30): DataFrame = {
    val maxDay = tagged.agg(max("day")).head
    tagged
      .filter(if (maxDay.isNullAt(0)) lit(false) else col("day") > maxDay.getInt(0) - windowDays)
      .withColumn("ord", struct(col("day"), col("session"), col("pos")))
      .groupBy("user_id")
      .agg(sort_array(collect_list(struct(col("ord"), col("entity_id")))).as("pairs"))
      .select(col("user_id"), expr("transform(pairs, p -> p.entity_id)").as("seq"))
  }

  /** Flattened view (user_id, rank, entity_id) — handy for joins and oracles. */
  def flattened(sequences: DataFrame): DataFrame =
    sequences.select(col("user_id"), posexplode(col("seq")).as(Seq("rank", "entity_id")))
}
