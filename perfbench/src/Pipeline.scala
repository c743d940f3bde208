package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.candidate.CandidateGeneration
import repro.core._
import repro.core.Trmp.{TrmpConfig, TrmpResult, WeeklyRun}
import repro.embed.{SemanticEmbed, SkipGram}
import repro.linkpred.LinkPredData
import repro.ner.{BertCrfSim, EntitySequenceExtractor}
import repro.preference.UserPreference
import repro.storage.GraphStore
import repro.world.{BehaviorGen, EntityWorld}
import scala.collection.mutable
import scala.util.Random

/** One week's mined graph as the publish step of `TableIII.run` prepares it:
  * the ensemble-accepted candidate relations with their scores, and the
  * fused entity embeddings the preference layer serves.
  */
final case class Published(candidates: Int, accepted: Array[(Int, Int, Double)],
                           fused: Array[Array[Double]], flat: DataFrame)

/** A published week loaded into the serving layers. */
final case class Serving(published: Published, entityEmb: DataFrame, userEmb: DataFrame, users: Long) {
  def release(): Unit = { userEmb.unpersist(); entityEmb.unpersist() }
}

/** The offline path: TRMP, then the publish step and the daily user-embedding
  * job, composed as `TableIII.run` composes them.
  */
object Pipeline {

  /** The traced counterpart of `Trmp.run`: the public calls `Trmp.candidateStage`, `runWeek`
    * and `run` make, in the same order and with the same arguments, each in
    * its own span. `count` receives the row counts seen at span boundaries.
    */
  def trmpTraced(spark: SparkSession, world: EntityWorld, cfg: TrmpConfig, sp: Spans,
                 count: (String, Double) => Unit): TrmpResult = {
    val n = world.cfg.nEntities
    val weekly = (0 until cfg.weeks).map { week =>
      sp("week") {
        val wr = new Random(cfg.seed * 131 + week)
        val logCfg = cfg.logCfg.copy(weekSeed = cfg.seed + week,
          crossTopicNoise = cfg.logCfg.crossTopicNoise + cfg.logDrift * wr.nextDouble())
        val behaviors = sp("world.behaviors")(BehaviorGen.generate(spark, world, logCfg))
        val nerCfg = BertCrfSim.NerConfig(
          pDrop = 0.03 + cfg.nerDrift * wr.nextDouble(),
          pConfuse = 0.02 + cfg.nerDrift * wr.nextDouble(),
          seed = cfg.seed + 17 * week)
        val tagged = sp("ner.tag")(BertCrfSim.tag(spark, world, behaviors, nerCfg))
        val flat = sp("ner.extract") {
          EntitySequenceExtractor.flattened(EntitySequenceExtractor.extract(tagged)).cache()
        }
        val sgCfg = cfg.sgCfg.copy(seed = cfg.sgCfg.seed + week)
        val pairRows = sp("embed.sgns_pairs") {
          SkipGram.pairs(flat, sgCfg.window).collect().map(r => (r.getInt(0), r.getInt(1)))
        }
        val embCo = sp("embed.sgns_train")(SkipGram.trainOnPairs(pairRows, n, sgCfg))
        val embSe = sp("embed.semantic")(SemanticEmbed.embed(world, cfg.semCfg))
        val gc = sp("candidate.knn")(CandidateGeneration.candidateGraph(spark, embCo, embSe, cfg.candCfg))
        val data = sp("linkpred.split") {
          LinkPredData.split(spark, gc, n, embSe, embCo, seed = cfg.seed + 1000 + week)
        }
        val alpc = sp("core.alpc_fit")(new Alpc(cfg.alpcCfg.copy(seed = cfg.alpcCfg.seed + week)).fit(data))
        count("ner.tagged_rows", sp(Probe)(flat.count()).toDouble)
        count("embed.sgns_pairs", pairRows.length)
        count("candidate.edges", data.trainPos.length + data.testPos.length)
        count("linkpred.train_pairs", data.trainPairs.length)
        WeeklyRun(week, flat, gc, data, alpc)
      }
    }
    val ensembles = weekly.map { wr =>
      val window = weekly.filter(x => x.week <= wr.week).takeRight(cfg.ensembleWindow)
      val padded = Seq.fill(cfg.ensembleWindow - window.length)(window.head) ++ window
      (wr.week, sp("core.ensemble_fit")(Ensemble.fit(padded.map(_.alpc.z), wr.data, cfg.ensCfg)))
    }
    TrmpResult(weekly, ensembles)
  }

  /** The publish step of `TableIII.run`: accept and score the last week's
    * candidates with its ensemble, and build the fused embeddings. With
    * `acceptAll` every candidate is published with its score.
    */
  def publish(trmp: TrmpResult, nEntities: Int, sp: Spans, acceptAll: Boolean): Published = {
    val wr = trmp.weekly.last
    val ensemble = trmp.ensembles.last._2
    sp("core.publish_score") {
      val cand = wr.candidateEdges.select("src", "dst").collect().map(r => (r.getInt(0), r.getInt(1)))
      val accepted = cand.filter { case (u, v) => acceptAll || ensemble.accept(u, v) }
        .map { case (u, v) => (u, v, ensemble.score(u, v)) }
      val raw = Array.tabulate(nEntities)(ensemble.fusedEmbedding)
      val dimMean = Array.tabulate(raw.head.length)(j => raw.map(_(j)).sum / raw.length)
      val fused = Array.tabulate(nEntities) { e =>
        val z = EntityWorld.normalize(raw(e).zip(dimMean).map { case (x, m) => x - m })
        z ++ wr.data.featSe(e) ++ wr.data.featCo(e)
      }
      Published(cand.length, accepted, fused, wr.sequencesFlat)
    }
  }

  /** Publishes a week: `GraphStore.write`, then the daily user-embedding job,
    * materialised.
    */
  def load(spark: SparkSession, store: GraphStore, p: Published, sp: Spans): Serving = {
    import spark.implicits._
    sp("storage.write")(store.write(p.accepted.toSeq.toDF("src", "dst", "score")))
    val entityEmb = UserPreference.embeddingsDf(spark, p.fused).cache()
    val (userEmb, users) = sp("preference.user_emb") {
      val u = UserPreference.userEmbeddings(p.flat, entityEmb).cache()
      (u, u.count())
    }
    Serving(p, entityEmb, userEmb, users)
  }

  /** Span name for calls the traced run adds only to read a count; traced
    * totals leave them out.
    */
  val Probe = "probe"

  /** Accumulates counts keyed by name. */
  final class Counts {
    val values = mutable.LinkedHashMap[String, Double]()
    def add(name: String, v: Double): Unit = values(name) = values.getOrElse(name, 0.0) + v
  }
}
