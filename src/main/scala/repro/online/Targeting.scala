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
      expandedEntities: DataFrame, // (entity_id, hop, path_score), a local relation
      selectedEntities: Seq[Int], // the simulated marketer's curation, best first
      targetUsers: Array[(Int, Double)], // (user_id, avg preference) sorted desc
      runtimeMillis: Double)

  /** End-to-end user targeting for one service.
    *
    * In the production flow the marketer *selects* the relevant entities from
    * the k-hop expansion (paper Fig. 6, step 3). We simulate that curation by
    * ranking expansion entities by embedding similarity to the seed set and
    * keeping the `maxEntities` best — k-hop graphs cross topic bridges, and
    * an uncurated expansion measurably dilutes targeting quality.
    *
    * The request runs no Spark job once the store's graph and the two
    * embedding frames are resident (`GraphStore`, `UserPreference.resident`);
    * the first request on a frame instance collects it. A warm request costs
    * its graph and scoring work: a CSR BFS, the curation, one dot product per
    * user (`UserPreference.topUsers`), and a local-relation
    * `expandedEntities` built against a fixed schema (`GraphStore.frame`).
    *
    * @param phrases     service-related phrases typed by the marketer
    * @param k           expansion depth chosen by the marketer (>= 0)
    * @param topKUsers   export size; <= 0 exports nobody
    * @param userEmb     precomputed user embeddings (offline daily job)
    * @param entityEmb   fused entity embeddings h_e (offline weekly job)
    * @param maxEntities size of the simulated marketer's selection; <= 0 exports nobody
    */
  def target(spark: SparkSession, world: EntityWorld, store: GraphStore,
             userEmb: DataFrame, entityEmb: DataFrame,
             phrases: Seq[String], k: Int, topKUsers: Int,
             maxEntities: Int = 25): TargetingResult = {
    val t0 = System.nanoTime()
    val seedIds = phrases.flatMap(world.idOf)
    require(seedIds.nonEmpty, s"no dict entity matches phrases $phrases")

    val expanded = store.expand(seedIds, k)
    val entities = UserPreference.resident(entityEmb)
    val seedMean = {
      val vecs = seedIds.flatMap(entities.get)
      require(vecs.nonEmpty, s"no embedding row for any seed entity ${seedIds.mkString(",")}")
      val d = vecs.head.length
      Array.tabulate(d)(i => vecs.map(_(i)).sum / vecs.length)
    }
    val expandedIds = expanded.map(_._1)
    val unembedded = expandedIds.filter(entities.get(_).isEmpty)
    require(unembedded.isEmpty, s"no embedding row for expanded entities ${unembedded.sorted.mkString(",")}")
    val chosen = expandedIds
      .map(e => (-EntityWorld.cosine(entities(e), seedMean), e))
      .sorted(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Int))
      .take(maxEntities).map(_._2).toSeq

    val top = UserPreference.topUsers(UserPreference.resident(userEmb), chosen.map(entities(_)), topKUsers)
    TargetingResult(seedIds, store.frame(expanded), chosen, top, (System.nanoTime() - t0) / 1e6)
  }

  /** The rule-based production baseline (paper Fig. 1a, Table III baseline):
    * prefabricated tag/rule targeting — users whose extracted behavior
    * contains entities of the service's *type* often enough. No graph, no
    * embeddings. Users rank by typed hits, then hit rate, both descending,
    * then ascending user id, so ties do not depend on the row layout.
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
      .orderBy(desc("hits"), desc("rate"), asc("user_id"))
      .limit(topKUsers)
      .collect()
      .map(_.getInt(0))
  }
}
