package repro.embed

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Test oracle for `SkipGram.pairArray`: the SGNS pairs as a Spark self-join
  * of the flattened sequences on user within `window` ranks. Output:
  * (user_id, ra, rb, center, context), in no particular order.
  */
object SparkSkipGramPairs {

  def pairs(flat: DataFrame, window: Int): DataFrame = {
    val a = flat.select(col("user_id"), col("rank").as("ra"), col("entity_id").as("center"))
    val b = flat.select(col("user_id"), col("rank").as("rb"), col("entity_id").as("context"))
    a.join(b, Seq("user_id"))
      .filter(col("ra") =!= col("rb") && abs(col("ra") - col("rb")) <= window)
      .select(col("user_id"), col("ra"), col("rb"), col("center"), col("context"))
  }
}
