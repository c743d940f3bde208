package repro.ner

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Entity sequence extractor (paper §III-A): collects the tagged entities of
  * each user's last 30 days and concatenates them chronologically into one
  * entity sequence per user, as DataFrame transformations; `sortedRows`
  * reads the sequences on the driver.
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

  /** The (user_id, rank, entity_id) rows of a flattened view, collected to the
    * driver and sorted by (user, rank): every user's sequence in order, in an
    * order that does not depend on how Spark lays out the rows. Ranks must be
    * distinct per user, as `flattened` gives; a repeated rank is rejected.
    */
  def sortedRows(flat: DataFrame): Array[(Int, Int, Int)] = {
    val rows = flat.select("user_id", "rank", "entity_id").collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getInt(2)))
      .sortBy(r => (r._1, r._2))
    for (i <- 1 until rows.length)
      require(rows(i - 1)._1 != rows(i)._1 || rows(i - 1)._2 != rows(i)._2,
        s"user ${rows(i)._1} repeats rank ${rows(i)._2} in the flattened sequences")
    rows
  }
}
