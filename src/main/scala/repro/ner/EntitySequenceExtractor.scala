package repro.ner

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{ArrayType, IntegerType, StructField, StructType}

/** Entity sequence extractor (paper §III-A): collects the tagged entities of
  * each user's last 30 days and concatenates them chronologically into one
  * entity sequence per user. Runs on the driver over collected rows and
  * returns local relations; the tests check it against the `collect_list` /
  * `sort_array` / `posexplode` form of the same steps. `sortedRows` reads the
  * flattened sequences back in (user, rank) order.
  */
object EntitySequenceExtractor {

  /** The schemas the Spark form gives for tagger output: `sort_array` of a
    * `collect_list` keeps no nulls, but its elements take the tagger's
    * nullable `entity_id`.
    */
  private val SequenceSchema = StructType(Seq(
    StructField("user_id", IntegerType, nullable = false),
    StructField("seq", ArrayType(IntegerType, containsNull = true), nullable = false)))

  private val FlatSchema = StructType(Seq(
    StructField("user_id", IntegerType, nullable = false),
    StructField("rank", IntegerType, nullable = false),
    StructField("entity_id", IntegerType, nullable = true)))

  /** Input: tagged behaviors (user_id, day, session, pos, entity_id).
    * Output: (user_id, seq: array<int>) by ascending user_id, each sequence
    * ordered by (day, session, pos, entity_id), of the rows with
    * day > maxDay − windowDays (maxDay over all rows); no rows when no
    * behavior was tagged with an entity. `windowDays` must be positive.
    */
  def extract(tagged: DataFrame, windowDays: Int = 30): DataFrame = {
    require(windowDays > 0, s"extract needs a positive window, got windowDays = $windowDays")
    val rows = tagged.select("user_id", "day", "session", "pos", "entity_id").collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getInt(2), r.getInt(3), r.getInt(4)))
    val maxDay = rows.iterator.map(_._2).maxOption.getOrElse(0)
    val kept = rows.filter(_._2 > maxDay - windowDays).sorted
    val out = new java.util.ArrayList[Row]()
    var start = 0
    while (start < kept.length) {
      val user = kept(start)._1
      var end = start
      while (end < kept.length && kept(end)._1 == user) end += 1
      out.add(Row(user, kept.slice(start, end).map(_._5)))
      start = end
    }
    tagged.sparkSession.createDataFrame(out, SequenceSchema)
  }

  /** Flattened view (user_id, rank, entity_id), rank from 0 along each
    * sequence, in input row order — handy for joins and oracles.
    */
  def flattened(sequences: DataFrame): DataFrame = {
    val out = new java.util.ArrayList[Row]()
    sequences.select("user_id", "seq").collect().foreach { r =>
      r.getSeq[Any](1).iterator.zipWithIndex.foreach { case (e, rank) => out.add(Row(r.getInt(0), rank, e)) }
    }
    sequences.sparkSession.createDataFrame(out, FlatSchema)
  }

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
