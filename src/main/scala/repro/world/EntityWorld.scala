package repro.world

import scala.util.Random

/** Configuration of the synthetic "Alipay" universe.
  *
  * The paper's data (user search/visit logs, the expert Entity Dict, human
  * annotators, online conversions) is proprietary; we replace it with a
  * latent-topic generative world. Every downstream signal — co-occurrence in
  * behavior logs, BERT-like semantic similarity, annotator judgements of
  * relatedness, and online conversion probability — derives from the *same*
  * latent entity/topic geometry, which is exactly the coupling the real
  * system exploits. See DESIGN.md §2.
  *
  * @param nEntities number of entities in the Entity Dict
  * @param nTopics   number of latent topics (clusters of related entities)
  * @param nUsers    number of users emitting behavior logs
  * @param seed      master seed — the world is fully deterministic in it
  */
final case class WorldConfig(
    nEntities: Int = 400,
    nTopics: Int = 12,
    nUsers: Int = 120,
    seed: Long = 7L,
)

/** One entity of the dict: its id doubles as the row index everywhere. */
final case class EntityInfo(id: Int, name: String, etype: Int, topic: Int,
                            latent: Array[Double], popularity: Double)

/** One simulated user: a sparse mixture over topics + a latent vector. */
final case class UserInfo(id: Int, topicMix: Array[Double], latent: Array[Double])

/** The materialised world, as driver-side arrays. */
final class EntityWorld(val cfg: WorldConfig) extends Serializable {
  import EntityWorld._
  private val rng = new Random(cfg.seed)

  /** Unit-norm topic centroids, pairwise quasi-orthogonal. */
  val topicCentroids: Array[Array[Double]] = Array.tabulate(cfg.nTopics) { t =>
    val r = new Random(cfg.seed * 31 + t)
    EntityWorld.normalize(Array.fill(LatentDim)(r.nextGaussian()))
  }

  val entities: Array[EntityInfo] = Array.tabulate(cfg.nEntities) { i =>
    val topic = i % cfg.nTopics
    val r = new Random(cfg.seed * 131 + i)
    val latent = EntityWorld.normalize(
      topicCentroids(topic).zip(Array.fill(LatentDim)(r.nextGaussian() * EntityNoise)).map { case (c, n) => c + n })
    // each topic maps onto a couple of dict types; popularity is zipf-in-topic.
    // With prob TypeNoise the tag is wrong — prefabricated dictionaries are
    // imprecise, which is what online rule-based targeting suffers from.
    val cleanType = (topic * 2 + (i / cfg.nTopics) % 2) % NTypes
    val etype = if (r.nextDouble() < TypeNoise) r.nextInt(NTypes) else cleanType
    val rankInTopic = i / cfg.nTopics + 1
    val popularity = 1.0 / math.pow(rankInTopic, 1.05)
    EntityInfo(i, s"ent_t${topic}_n$i", etype, topic, latent, popularity)
  }

  val users: Array[UserInfo] = Array.tabulate(cfg.nUsers) { u =>
    val r = new Random(cfg.seed * 1013 + u)
    val nPref = 1 + r.nextInt(3)
    val prefTopics = r.shuffle((0 until cfg.nTopics).toList).take(nPref)
    val mix = new Array[Double](cfg.nTopics)
    prefTopics.foreach(t => mix(t) = 0.2 + r.nextDouble())
    val z = mix.sum
    var i = 0
    while (i < mix.length) { mix(i) /= z; i += 1 }
    val latent = EntityWorld.normalize(
      Array.tabulate(LatentDim)(d => (0 until cfg.nTopics).map(t => mix(t) * topicCentroids(t)(d)).sum
        + r.nextGaussian() * 0.1))
    UserInfo(u, mix, latent)
  }

  /** Ground-truth relatedness of two entities — what annotators estimate. */
  def relatedness(u: Int, v: Int): Double =
    EntityWorld.cosine(entities(u).latent, entities(v).latent)

  /** Ground-truth affinity of a user to an entity — drives conversions. */
  def affinity(user: Int, entity: Int): Double =
    EntityWorld.cosine(users(user).latent, entities(entity).latent)

  private val nameToId: Map[String, Int] = entities.map(e => e.name -> e.id).toMap
  def idOf(name: String): Option[Int] = nameToId.get(name)
}

object EntityWorld {

  /** Entity types in the dict (paper: 26). */
  private val NTypes = 26

  /** Dimension of the latent topic space. */
  private val LatentDim = 16

  /** σ of per-entity deviation from its topic centroid; controls how crisp
    * "relatedness" is.
    */
  private val EntityNoise = 0.35

  /** Probability an entity's dict *type* is mislabelled (a random type).
    * Models the staleness/coarseness of prefabricated tag dictionaries — the
    * reason the paper's rule-based baseline underperforms (Fig. 1a). Latent
    * relatedness is unaffected; only tag-driven logic sees it.
    */
  private val TypeNoise = 0.30

  def normalize(v: Array[Double]): Array[Double] = {
    val n = math.sqrt(v.map(x => x * x).sum)
    if (n == 0) v else v.map(_ / n)
  }

  def cosine(a: Array[Double], b: Array[Double]): Double = {
    var dot = 0.0; var na = 0.0; var nb = 0.0
    var i = 0
    while (i < a.length) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    if (na == 0 || nb == 0) 0.0 else dot / math.sqrt(na * nb)
  }
}
