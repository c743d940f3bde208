package repro.linkpred

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.candidate.CandidateGeneration
import repro.embed.SemanticEmbed
import repro.world.{EntityWorld, WorldConfig}

/** Shared tiny link-prediction fixture for model tests: a topic-structured
  * candidate graph over a small world, so every method has learnable signal.
  */
object TestGraphs {

  lazy val world = new EntityWorld(WorldConfig(nEntities = 120, nTopics = 6, nUsers = 10, seed = 43))

  def embSe: Array[Array[Double]] =
    SemanticEmbed.embed(world, SemanticEmbed.SemConfig(signal = 0.75, noise = 0.15, seed = 2))
  def embCo: Array[Array[Double]] =
    SemanticEmbed.embed(world, SemanticEmbed.SemConfig(signal = 0.65, noise = 0.25, seed = 3))

  /** The fixture's candidate graph `G^C` (src, dst, sim, rel_type), uncached. */
  def tinyCandidates(spark: SparkSession): DataFrame =
    CandidateGeneration.candidateGraph(spark, embCo, embSe,
      CandidateGeneration.CandConfig(topKCooc = 6, topKSem = 5))

  def tinyDataset(spark: SparkSession): LinkPredData =
    LinkPredData.split(spark, tinyCandidates(spark), world.cfg.nEntities, embSe, embCo, seed = 13)

  /** Bit patterns, so batched and per-pair scores compare bit for bit. */
  def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** Per-pair scores: each pair scored as a batch of one. */
  def perPair(scorer: LinkScorer, pairs: Array[(Int, Int)]): Array[Double] =
    pairs.map { case (u, v) => scorer.score(u, v) }
}
