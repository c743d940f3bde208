package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.online.Targeting
import repro.storage.GraphStore
import repro.world.EntityWorld
import scala.util.Random

/** Online A/B testing simulator for Table III.
  *
  * Each service is anchored on a latent topic. Two arms target the same
  * simulated user base:
  *   - baseline: the production rule-based method (type/tag matching);
  *   - EGL: phrase → k-hop entity expansion → preference top-K.
  * Exposure is the targeted set thinned by an arm-independent reachability
  * draw (users who actually see the promotion); each exposed user converts
  * with probability increasing in their latent affinity to the service topic.
  * Reported numbers are percent gains of EGL over baseline, as in the paper.
  */
object OnlineSim {

  final case class ServiceSpec(name: String, topic: Int, phrases: Seq[String])

  final case class AbConfig(topKUsers: Int = 300, hops: Int = 2)

  /** Share of targeted users who actually see the promotion. */
  private val Reachability = 0.97

  /** conversion model: p = clamp(base + slope·max(affinity,0)³) — cubic
    * because conversion needs *strong* interest; mild interest mostly
    * just tolerates the exposure
    */
  private val ConvBase = 0.02
  private val ConvSlope = 0.38

  /** Seed of the reachability draws. */
  private val Seed = 307L

  final case class AbResult(
      service: String,
      exposureGainPct: Double,
      conversionGainPct: Double,
      cvrGainPct: Double,
      eglCvr: Double,
      baseCvr: Double,
      runtimeMillis: Double)

  /** Default service specs: one per topic, seeded with the topic's two most
    * popular entities (what a marketer would type into the search box).
    */
  def defaultServices(world: EntityWorld, topics: Seq[Int]): Seq[ServiceSpec] =
    topics.map { t =>
      val seeds = world.entities.filter(_.topic == t).sortBy(-_.popularity).take(2).map(_.name)
      ServiceSpec(s"service_t$t", t, seeds.toSeq)
    }

  private def convProb(world: EntityWorld, user: Int, topic: Int): Double = {
    val aff = EntityWorld.cosine(world.users(user).latent, world.topicCentroids(topic))
    math.min(0.95, ConvBase + ConvSlope * math.pow(math.max(0.0, aff), 3))
  }

  /** Simulates one arm. Reachability uses common random numbers: whether a
    * user sees the promotion is a property of the (user, service) pair,
    * identical across arms. Conversions are reported in *expectation*
    * (Σ p(convert|u) over exposed users): our user base is a downsample of
    * the paper's millions of users, and at this size per-user Bernoulli draws
    * would drown the arm difference in Monte-Carlo noise that the real
    * experiment's scale averages away.
    */
  private def simulateArm(world: EntityWorld, users: Array[Int], topic: Int): (Int, Double) = {
    var exposed = 0; var converted = 0.0
    users.foreach { u =>
      val r = new Random(Seed * 31 + u * 7919L + topic)
      if (r.nextDouble() < Reachability) {
        exposed += 1
        converted += convProb(world, u, topic)
      }
    }
    (exposed, converted)
  }

  def runService(spark: SparkSession, world: EntityWorld, store: GraphStore,
                 userEmb: DataFrame, entityEmb: DataFrame, flatSeq: DataFrame,
                 spec: ServiceSpec, cfg: AbConfig = AbConfig()): AbResult = {
    // EGL arm (timed — this is the "running time" column)
    val res = Targeting.target(spark, world, store, userEmb, entityEmb,
      spec.phrases, cfg.hops, cfg.topKUsers)
    val eglUsers = res.targetUsers.map(_._1)

    // baseline arm: rule-based targeting on the service's dominant dict type
    val serviceType = world.entities.filter(_.topic == spec.topic)
      .groupBy(_.etype).view.mapValues(_.length).maxBy(_._2)._1
    val baseUsers = Targeting.ruleBasedTarget(spark, world, flatSeq, serviceType, cfg.topKUsers)

    val (eglExp, eglConv) = simulateArm(world, eglUsers, spec.topic)
    val (baseExp, baseConv) = simulateArm(world, baseUsers, spec.topic)
    val eglCvr = if (eglExp == 0) 0.0 else eglConv / eglExp
    val baseCvr = if (baseExp == 0) 0.0 else baseConv / baseExp
    def gain(a: Double, b: Double): Double = if (b == 0) 0.0 else (a - b) / b * 100.0
    AbResult(spec.name,
      exposureGainPct = gain(eglExp.toDouble, baseExp.toDouble),
      conversionGainPct = gain(eglConv, baseConv),
      cvrGainPct = gain(eglCvr, baseCvr),
      eglCvr = eglCvr, baseCvr = baseCvr,
      runtimeMillis = res.runtimeMillis)
  }
}
