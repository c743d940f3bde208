package repro.storage

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Test oracle for `GraphStore.kHop`: k-hop expansion as iterative Spark
  * self-joins over the persisted edge DataFrame (src, dst, score), the
  * dataflow a distributed graph database would execute.
  */
object SparkKHop {

  /** Undirected adjacency view (both directions). */
  def adjacency(edges: DataFrame): DataFrame =
    edges.select(col("src").as("a"), col("dst").as("b"), col("score"))
      .union(edges.select(col("dst").as("a"), col("src").as("b"), col("score")))

  /** (entity_id, hop, path_score): min hop, and max path-score product over
    * shortest-hop paths; seeds at hop 0 with score 1.
    */
  def kHop(spark: SparkSession, edges: DataFrame, seeds: Seq[Int], k: Int): DataFrame = {
    import spark.implicits._
    val adj = adjacency(edges)
    var frontier = seeds.toDF("entity_id").withColumn("hop", lit(0)).withColumn("path_score", lit(1.0))
    var visited = frontier
    var hop = 0
    while (hop < k) {
      val next = frontier
        .join(adj, frontier("entity_id") === adj("a"))
        .select(col("b").as("entity_id"), (col("hop") + 1).as("hop"),
                (col("path_score") * col("score")).as("path_score"))
        .join(visited.select(col("entity_id").as("seen")), col("entity_id") === col("seen"), "left_anti")
        .groupBy("entity_id")
        .agg(min("hop").as("hop"), max("path_score").as("path_score"))
      visited = visited.union(next.select("entity_id", "hop", "path_score"))
      frontier = next.select("entity_id", "hop", "path_score")
      hop += 1
    }
    visited.groupBy("entity_id").agg(min("hop").as("hop"), max("path_score").as("path_score"))
  }
}
