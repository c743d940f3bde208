package repro.eval

import repro.world.EntityWorld
import scala.util.Random

/** Simulated manual evaluation (paper §IV-A1).
  *
  * The paper samples entity pairs and asks 8 annotators to rate each as
  * highly correlated (1), medium (0.5) or uncorrelated (0); a relation is
  * *accurate* iff its correlation score > 0. We simulate each annotator as a
  * noisy reader of the generative latent relatedness, plus a popularity
  * leniency term (two famous entities get the benefit of the doubt — the
  * effect that makes popularity-sampled pairs score ~0.68 ACC in the paper
  * rather than near zero).
  *
  *   perceived = cos(θ_u, θ_v) + leniency·(pop_u·pop_v)^{1/4} + N(0, σ)
  *   rating    = 1 if perceived > high, 0.5 if > medium, else 0
  *
  * The pair's correlation score is the median of the 8 ratings.
  */
object Annotators {

  final case class AnnotatorConfig(popLeniency: Double = 0.45, seed: Long = 223L)

  /** Panel size (the paper's 8 annotators). */
  private val NAnnotators = 8

  /** Rating cuts on the perceived relatedness: 1 above `High`, 0.5 above `Medium`. */
  private val High = 0.70
  private val Medium = 0.38

  /** σ of each annotator's reading noise. */
  private val Noise = 0.08

  /** Median annotator correlation score ∈ {0, 0.5, 1} for one pair. */
  def judgePair(world: EntityWorld, u: Int, v: Int, cfg: AnnotatorConfig = AnnotatorConfig()): Double = {
    val base = world.relatedness(u, v) +
      cfg.popLeniency * math.pow(world.entities(u).popularity * world.entities(v).popularity, 0.25)
    val ratings = (0 until NAnnotators).map { a =>
      val r = new Random(cfg.seed * 7 + a * 7919L + u * 1_000_003L + v)
      val perceived = base + r.nextGaussian() * Noise
      if (perceived > High) 1.0 else if (perceived > Medium) 0.5 else 0.0
    }.sorted
    ratings(ratings.length / 2)
  }

  final case class Judged(acc: Double, cors: Double, judged: Int)

  /** ACC and CorS over a (possibly sampled) set of relations (eq. 8):
    * ACC = fraction of relations with score > 0; CorS = mean score.
    */
  def evaluate(world: EntityWorld, pairs: Array[(Int, Int)],
               cfg: AnnotatorConfig = AnnotatorConfig(), maxSample: Int = 2000): Judged = {
    if (pairs.isEmpty) return Judged(0.0, 0.0, 0)
    val rng = new Random(cfg.seed)
    val sample = if (pairs.length <= maxSample) pairs
                 else Array.fill(maxSample)(pairs(rng.nextInt(pairs.length)))
    val scores = sample.map { case (u, v) => judgePair(world, u, v, cfg) }
    Judged(scores.count(_ > 0).toDouble / scores.length, scores.sum / scores.length, scores.length)
  }

  /** AEEC: average expansion entity count = relations per dict entity (eq. 8).
    * Relations are undirected pairs; each contributes to both endpoints.
    */
  def aeec(nRelations: Long, nEntities: Int): Double = 2.0 * nRelations / nEntities
}
