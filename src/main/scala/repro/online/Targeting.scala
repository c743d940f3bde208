package repro.online

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.storage.GraphStore
import repro.preference.UserPreference
import repro.world.EntityWorld

/** The online stage (paper §II-B): a marketer submits service phrases, the
  * system expands them k hops over the stored entity graph, the marketer
  * selects expansion entities, and the top-K users by average preference
  * toward the selected entities are exported.
  */
object Targeting {

  final case class TargetingResult(
      seedIds: Seq[Int],
      expandedEntities: DataFrame, // (entity_id, hop, path_score)
      targetUsers: Array[(Int, Double)], // (user_id, avg preference) sorted desc
      runtimeMillis: Long)

  /** End-to-end user targeting for one service.
    *
    * In the production flow the marketer *selects* the relevant entities from
    * the k-hop expansion (paper Fig. 6, step 3). We simulate that curation by
    * ranking expansion entities by embedding similarity to the seed set and
    * keeping the `maxEntities` best — k-hop graphs cross topic bridges, and
    * an uncurated expansion measurably dilutes targeting quality.
    *
    * @param phrases     service-related phrases typed by the marketer
    * @param k           expansion depth chosen by the marketer
    * @param topKUsers   export size
    * @param userEmb     precomputed user embeddings (offline daily job)
    * @param entityEmb   fused entity embeddings h_e (offline weekly job)
    * @param maxEntities size of the simulated marketer's selection
    */
  def target(spark: SparkSession, world: EntityWorld, store: GraphStore,
             userEmb: DataFrame, entityEmb: DataFrame,
             phrases: Seq[String], k: Int, topKUsers: Int,
             maxEntities: Int = 25): TargetingResult = {
    val t0 = System.nanoTime()
    val seedIds = phrases.flatMap(world.idOf)
    require(seedIds.nonEmpty, s"no dict entity matches phrases $phrases")

    val expanded = store.kHop(seedIds, k).cache()
    val embById = entityEmb.collect().map(r => r.getInt(0) -> r.getSeq[Double](1).toArray).toMap
    val seedMean = {
      val vecs = seedIds.flatMap(embById.get)
      require(vecs.nonEmpty, s"no embedding row for any seed entity ${seedIds.mkString(",")}")
      val d = vecs.head.length
      Array.tabulate(d)(i => vecs.map(_(i)).sum / vecs.length)
    }
    val expandedIds = expanded.select("entity_id").collect().map(_.getInt(0))
    val unembedded = expandedIds.filterNot(embById.contains)
    require(unembedded.isEmpty, s"no embedding row for expanded entities ${unembedded.sorted.mkString(",")}")
    val chosen = expandedIds
      .sortBy(e => -EntityWorld.cosine(embById(e), seedMean))
      .take(maxEntities).toSeq

    val scores = UserPreference.preferenceScores(spark, userEmb, entityEmb, chosen)
    val top = scores.groupBy("user_id")
      .agg(avg("score").as("pref"))
      .orderBy(desc("pref"))
      .limit(topKUsers)
      .collect()
      .map(r => (r.getInt(0), r.getDouble(1)))
    val ms = (System.nanoTime() - t0) / 1000000
    TargetingResult(seedIds, expanded, top, ms)
  }

  /** The rule-based production baseline (paper Fig. 1a, Table III baseline):
    * prefabricated tag/rule targeting — users whose extracted behavior
    * contains entities of the service's *type* often enough. No graph, no
    * embeddings.
    */
  def ruleBasedTarget(spark: SparkSession, world: EntityWorld, flatSeq: DataFrame,
                      serviceType: Int, topKUsers: Int): Array[Int] = {
    import spark.implicits._
    val typed = world.entities.filter(_.etype == serviceType).map(_.id).toSet
    val bTyped = spark.sparkContext.broadcast(typed)
    val isTyped = udf((e: Int) => bTyped.value.contains(e))
    flatSeq
      .withColumn("hit", when(isTyped(col("entity_id")), 1).otherwise(0))
      .groupBy("user_id")
      .agg(sum("hit").as("hits"), count("*").as("total"))
      .withColumn("rate", col("hits") / col("total"))
      .orderBy(desc("hits"), desc("rate"))
      .limit(topKUsers)
      .collect()
      .map(_.getInt(0))
  }
}
