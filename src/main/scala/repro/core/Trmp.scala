package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.candidate.CandidateGeneration
import repro.embed.{SemanticEmbed, SkipGram}
import repro.linkpred.LinkPredData
import repro.ner.{BertCrfSim, EntitySequenceExtractor}
import repro.world.{BehaviorGen, EntityWorld}
import scala.util.Random

/** TRMP — the Three-stage Relation Mining Procedure, orchestrated end to end
  * (paper §III-B, Fig. 4), plus the weekly-run harness that Table I's
  * stability experiment needs.
  *
  * A "week" regenerates behavior logs with a shifted seed and a slightly
  * drifting NER quality — the upstream-distribution fluctuation the paper
  * blames for ALPC's weekly accuracy variance. The ensemble integrates the
  * last `ensembleWindow` weekly ALPC models.
  */
object Trmp {

  final case class TrmpConfig(
      logCfg: BehaviorGen.LogConfig = BehaviorGen.LogConfig(),
      candCfg: CandidateGeneration.CandConfig = CandidateGeneration.CandConfig(),
      sgCfg: SkipGram.SgConfig = SkipGram.SgConfig(),
      semCfg: SemanticEmbed.SemConfig = SemanticEmbed.SemConfig(),
      alpcCfg: AlpcConfig = AlpcConfig(),
      ensCfg: EnsembleConfig = EnsembleConfig(),
      weeks: Int = 4,
      ensembleWindow: Int = 3,
      /** per-week NER quality drift amplitude (models upstream fluctuation) */
      nerDrift: Double = 0.05,
      /** per-week behavior-log topical-noise drift — the upstream data-source
        * fluctuation the paper blames for ALPC's weekly accuracy swings
        * (Fig. 5b); the ensemble stage exists to absorb it
        */
      logDrift: Double = 0.15,
      seed: Long = 211L,
  )

  /** Artifacts of one weekly offline run. */
  final case class WeeklyRun(
      week: Int,
      sequencesFlat: DataFrame,
      candidateEdges: DataFrame,
      data: LinkPredData,
      alpc: AlpcScorer)

  /** Full pipeline result across weeks. */
  final case class TrmpResult(weekly: Seq[WeeklyRun], ensembles: Seq[(Int, EnsembleScorer)])

  /** Stage I for one week: logs → NER → sequences → E^Co/E^Se → G^C. */
  def candidateStage(spark: SparkSession, world: EntityWorld, cfg: TrmpConfig, week: Int)
      : (DataFrame, DataFrame, Array[Array[Double]], Array[Array[Double]]) = {
    val wr = new Random(cfg.seed * 131 + week)
    val logCfg = cfg.logCfg.copy(weekSeed = cfg.seed + week,
      crossTopicNoise = cfg.logCfg.crossTopicNoise + cfg.logDrift * wr.nextDouble())
    val behaviors = BehaviorGen.generate(spark, world, logCfg)
    val nerCfg = BertCrfSim.NerConfig(
      pDrop = 0.03 + cfg.nerDrift * wr.nextDouble(),
      pConfuse = 0.02 + cfg.nerDrift * wr.nextDouble(),
      seed = cfg.seed + 17 * week)
    val tagged = BertCrfSim.tag(spark, world, behaviors, nerCfg)
    val sequences = EntitySequenceExtractor.extract(tagged)
    val flat = EntitySequenceExtractor.flattened(sequences)
    val embCo = SkipGram.train(flat, world.cfg.nEntities,
      cfg.sgCfg.copy(seed = cfg.sgCfg.seed + week))
    val embSe = SemanticEmbed.embed(world, cfg.semCfg)
    val gc = CandidateGeneration.candidateGraph(spark, embCo, embSe, cfg.candCfg)
    (flat, gc, embCo, embSe)
  }

  /** One weekly offline run: candidate stage + ALPC ranking. */
  def runWeek(spark: SparkSession, world: EntityWorld, cfg: TrmpConfig, week: Int): WeeklyRun = {
    val (flat, gc, embCo, embSe) = candidateStage(spark, world, cfg, week)
    val data = LinkPredData.split(spark, gc, world.cfg.nEntities, embSe, embCo,
      seed = cfg.seed + 1000 + week)
    val alpc = new Alpc(cfg.alpcCfg.copy(seed = cfg.alpcCfg.seed + week)).fit(data)
    WeeklyRun(week, flat, gc, data, alpc)
  }

  /** Runs all weeks and fits, for every week, the ensemble over the trailing
    * window of weekly ALPC embeddings (repeating the oldest model when fewer
    * than `ensembleWindow` are available, so the token count is constant).
    */
  def run(spark: SparkSession, world: EntityWorld, cfg: TrmpConfig = TrmpConfig()): TrmpResult = {
    require(cfg.weeks >= 1, s"Trmp.run needs at least one week, got weeks = ${cfg.weeks}")
    val weekly = (0 until cfg.weeks).map(w => runWeek(spark, world, cfg, w))
    val ensembles = weekly.map { wr =>
      val window = weekly.filter(x => x.week <= wr.week).takeRight(cfg.ensembleWindow)
      val padded = Seq.fill(cfg.ensembleWindow - window.length)(window.head) ++ window
      // same classifier seed every week: weekly variation must come from the
      // data (what the ensemble is built to absorb), not from re-rolled inits
      val scorer = Ensemble.fit(padded.map(_.alpc.z), wr.data, cfg.ensCfg)
      (wr.week, scorer)
    }
    TrmpResult(weekly, ensembles)
  }

  /** Relations each stage would publish for a given week — the rows Table I
    * evaluates. Pairs come from the week's candidate graph; ranking/ensemble
    * keep the subset their decision rule accepts.
    */
  def stageRelations(wr: WeeklyRun, ensemble: Option[EnsembleScorer]): Map[String, Array[(Int, Int)]] = {
    val candPairs = wr.candidateEdges.select("src", "dst").collect()
      .map(r => (r.getInt(0), r.getInt(1)))
    def kept(mask: Array[Boolean]) = candPairs.zip(mask).collect { case (p, true) => p }
    val base = Map("candidate" -> candPairs, "ranked" -> kept(wr.alpc.acceptAdaptive(candPairs)))
    ensemble match {
      case Some(es) => base + ("ensemble" -> kept(es.accept(candPairs)))
      case None     => base
    }
  }
}
