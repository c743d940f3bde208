package repro.preference

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Test oracle for `UserPreference.userEmbeddings`: the daily job as a
  * shuffle join and a `collect_list` of whole vectors per user, averaged
  * element-wise by a SQL `transform` / `aggregate`.
  */
object SparkUserEmbeddings {

  def userEmbeddings(flatSeq: DataFrame, embeddings: DataFrame): DataFrame =
    flatSeq
      .join(embeddings, "entity_id")
      .groupBy("user_id")
      .agg(collect_list(col("vec")).as("vecs"))
      .select(col("user_id"),
        expr("transform(vecs[0], (_, j) -> aggregate(vecs, 0D, (a, v) -> a + v[j]) / size(vecs))").as("vec"))
}
