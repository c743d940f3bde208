package repro.tables

import org.apache.spark.sql.SparkSession
import repro.candidate.CandidateGeneration
import repro.core._
import repro.embed.SkipGram
import repro.eval.Annotators
import repro.world.{BehaviorGen, EntityWorld, WorldConfig}

/** Table I — "Metrics of each stage": ACC, CorS, AEEC and weekly ACC variance
  * for the four TRMP ablation levels, measured over several simulated weeks.
  *
  *   TRMP w.o. E&R_s : popularity-sampled pairs from the Entity Dict
  *   TRMP w.o. E&R   : candidate-generation graph only
  *   TRMP w.o. E     : + ALPC ranking (adaptive-threshold truncation)
  *   TRMP            : + ensemble over the trailing weekly ALPC models
  */
object TableI {

  private val World = WorldConfig(nEntities = 800, nTopics = 16, nUsers = 300)
  private val TrmpCfg = Trmp.TrmpConfig(
    logCfg = BehaviorGen.LogConfig(days = 20, sessionsPerDay = 2, mentionsPerSession = 5),
    candCfg = CandidateGeneration.CandConfig(topKCooc = 12, topKSem = 8),
    sgCfg = SkipGram.SgConfig(dim = 16, epochs = 2),
    // few epochs on purpose: the ranking stage's labels are the candidate
    // edges themselves, so a long-trained model memorises the wrong ones
    // instead of letting graph smoothness filter them out
    alpcCfg = AlpcConfig(dim = 16, layers = 2, k = 6, epochs = 15),
    ensCfg = EnsembleConfig(epochs = 25, maxTrainPairs = 4000),
    weeks = 6, ensembleWindow = 3)
  private val Panel = Annotators.AnnotatorConfig()
  private val JudgeSample = 1500

  /** metrics use only weeks with a full ensemble window (steady state) */
  private val SteadyStateWeeks = 4

  /** One output row (ACC/CorS averaged over weeks; variance in pp² of ACC%). */
  final case class Row(stage: String, acc: Double, cors: Double, aeec: Double, varAccPct: Double)

  final case class Result(rows: Seq[Row], weeklyAcc: Map[String, Seq[Double]])

  def run(spark: SparkSession): Result = {
    val world = new EntityWorld(World)
    val result = Trmp.run(spark, world, TrmpCfg)
    val n = World.nEntities

    // per-week relations per stage; metrics over the trailing steady-state
    // weeks only, so early weeks with a padded ensemble window don't distort
    // the variance comparison
    val stageNames = Seq("popularity", "candidate", "ranked", "ensemble")
    val steady = result.weekly.takeRight(SteadyStateWeeks)
    val weeklyPairs: Seq[Map[String, Array[(Int, Int)]]] = steady.map { wr =>
      val ens = result.ensembles.find(_._1 == wr.week).map(_._2)
      val base = Trmp.stageRelations(wr, ens)
      // popularity baseline matched in volume to the candidate stage, resampled
      // weekly (its data source fluctuates too)
      val avgDeg = math.max(1, (2.0 * base("candidate").length / n).round.toInt)
      val pop = CandidateGeneration.popularitySampledPairs(spark, world, avgDeg,
          seed = 41L + wr.week)
        .select("src", "dst").collect().map(r => (r.getInt(0), r.getInt(1)))
      base + ("popularity" -> pop)
    }

    // the panel judges each (stage, week) relation set once
    val judged: Map[String, Seq[Annotators.Judged]] = stageNames.map { s =>
      s -> weeklyPairs.zipWithIndex.map { case (m, w) =>
        Annotators.evaluate(world, m(s), Panel.copy(seed = Panel.seed + w), JudgeSample)
      }
    }.toMap
    val weeklyAcc = stageNames.map(s => s -> judged(s).map(_.acc)).toMap
    val rows = stageNames.map { s =>
      val accs = weeklyAcc(s).map(_ * 100)
      val meanAcc = accs.sum / accs.length
      val varAcc = accs.map(a => (a - meanAcc) * (a - meanAcc)).sum / accs.length
      val aeec = weeklyPairs.map(m => Annotators.aeec(m(s).length, n)).sum / weeklyPairs.length
      Row(stageLabel(s), meanAcc / 100,
        judged(s).map(_.cors).sum / judged(s).length, aeec, varAcc)
    }
    Result(rows, weeklyAcc)
  }

  private def stageLabel(s: String): String = s match {
    case "popularity" => "TRMP w.o. E&R_s"
    case "candidate"  => "TRMP w.o. E&R"
    case "ranked"     => "TRMP w.o. E"
    case "ensemble"   => "TRMP"
  }

  /** Paper's numbers for side-by-side printing. */
  val paper: Seq[Row] = Seq(
    Row("TRMP w.o. E&R_s", 0.6860, 0.673, 78.0, 0.30),
    Row("TRMP w.o. E&R",   0.8060, 0.780, 78.0, 0.32),
    Row("TRMP w.o. E",     0.9770, 0.950, 61.2, 0.31),
    Row("TRMP",            0.9776, 0.951, 59.5, 0.08),
  )

  def format(r: Result): String = {
    val sb = new StringBuilder
    sb ++= "Table I: Metrics of each stage (measured | paper)\n"
    sb ++= f"${"Stage"}%-18s ${"ACC"}%-17s ${"CorS"}%-15s ${"AEEC"}%-15s ${"Var(ACC%%)"}%-12s\n"
    r.rows.zip(paper).foreach { case (m, p) =>
      sb ++= f"${m.stage}%-18s ${m.acc * 100}%6.2f%% | ${p.acc * 100}%6.2f%%  ${m.cors}%5.3f | ${p.cors}%5.3f  ${m.aeec}%6.1f | ${p.aeec}%5.1f  ${m.varAccPct}%5.2f | ${p.varAccPct}%4.2f\n"
    }
    sb.toString
  }
}
