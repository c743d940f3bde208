package repro.candidate

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.world.EntityWorld

/** Test oracle for `CandidateGeneration.knn` / `candidateGraph`: the k-NN as
  * a Spark job (the embedding matrix broadcast, each partition scoring its
  * slice of source entities against it, ranked by a stable `sortBy(-sim)`)
  * and `G^C` as a Spark canonicalising aggregate.
  */
object SparkKnn {

  def knnEdges(spark: SparkSession, emb: Array[Array[Double]], k: Int, relType: Int): DataFrame = {
    import spark.implicits._
    val n = emb.length
    val bEmb = spark.sparkContext.broadcast(emb)
    spark.sparkContext.parallelize(0 until n, math.min(16, n))
      .flatMap { src =>
        val all = bEmb.value
        val v = all(src)
        val sims = new Array[(Int, Double)](n)
        var j = 0
        while (j < n) { sims(j) = (j, EntityWorld.cosine(v, all(j))); j += 1 }
        sims.filter(_._1 != src).sortBy(-_._2).take(k).map { case (dst, s) => (src, dst, s, relType) }
      }
      .toDF("src", "dst", "sim", "rel_type")
  }

  def candidateGraph(spark: SparkSession, embCo: Array[Array[Double]], embSe: Array[Array[Double]],
                     cfg: CandidateGeneration.CandConfig): DataFrame =
    knnEdges(spark, embCo, cfg.topKCooc, CandidateGeneration.RelCooc)
      .union(knnEdges(spark, embSe, cfg.topKSem, CandidateGeneration.RelSemantic))
      .select(least(col("src"), col("dst")).as("src"),
              greatest(col("src"), col("dst")).as("dst"),
              col("sim"), col("rel_type"))
      .groupBy("src", "dst")
      .agg(max("sim").as("sim"), min("rel_type").as("rel_type"))
}
