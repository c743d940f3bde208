package repro.tables

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.candidate.CandidateGeneration
import repro.core._
import repro.embed.SkipGram
import repro.eval.OnlineSim
import repro.online.Targeting
import repro.preference.UserPreference
import repro.storage.GraphStore
import repro.world.{BehaviorGen, EntityWorld, WorldConfig}
import java.nio.file.Files

/** Table III — "Online experiments performance": per-service A/B gains of
  * EGL targeting over the production rule-based baseline, plus the measured
  * running time of each EGL user-targeting request.
  *
  * The full system path runs end to end: one TRMP offline week builds the
  * entity graph and fused embeddings; the graph goes into the Geabase
  * stand-in; user preferences are computed from the extracted sequences; the
  * online stage answers five service requests against simulated traffic.
  */
object TableIII {

  final case class Scale(
      world: WorldConfig = WorldConfig(nEntities = 600, nTopics = 12, nUsers = 800),
      trmp: Trmp.TrmpConfig = Trmp.TrmpConfig(
        logCfg = BehaviorGen.LogConfig(days = 15, sessionsPerDay = 2, mentionsPerSession = 5),
        candCfg = CandidateGeneration.CandConfig(topKCooc = 10, topKSem = 7),
        sgCfg = SkipGram.SgConfig(dim = 16, epochs = 2),
        alpcCfg = AlpcConfig(dim = 16, layers = 2, k = 6, epochs = 30),
        ensCfg = EnsembleConfig(epochs = 20, maxTrainPairs = 4000),
        weeks = 2, ensembleWindow = 2),
      ab: OnlineSim.AbConfig = OnlineSim.AbConfig(topKUsers = 120, hops = 2))

  /** Services run, one per topic from topic 0: as many as the paper reports. */
  private val NServices = 5

  /** The paper's five services for side-by-side printing. */
  final case class PaperRow(service: String, exposure: Double, conversion: Double,
                            cvr: Double, minutes: Double)
  val paper: Seq[PaperRow] = Seq(
    PaperRow("Railway", 0.30, 23.20, 23.00, 3.0),
    PaperRow("Dicos", 0.50, 16.90, 16.30, 2.0),
    PaperRow("Cosmetics", -0.20, 19.50, 19.80, 2.5),
    PaperRow("Dessert", 0.73, 33.60, 32.90, 3.2),
    PaperRow("Women Football", 0.10, 9.40, 9.20, 2.2),
  )

  /** Per-service A/B rows, each timed on a warm request, and the time of the
    * cold first request made before them.
    */
  final case class Result(rows: Seq[OnlineSim.AbResult], coldMillis: Double) {
    def warmMedianMillis: Double = {
      val ms = rows.map(_.runtimeMillis).sorted
      if (ms.length % 2 == 1) ms(ms.length / 2) else (ms(ms.length / 2 - 1) + ms(ms.length / 2)) / 2
    }
  }

  def run(spark: SparkSession, scale: Scale = Scale()): Result = {
    val world = new EntityWorld(scale.world)
    val trmp = Trmp.run(spark, world, scale.trmp)
    val lastWeek = trmp.weekly.last
    val ensemble = trmp.ensembles.last._2

    // publish the mined graph: ensemble-accepted candidate relations w/ scores
    val store = new GraphStore(spark, Files.createTempDirectory("geabase").resolve("graph").toString)
    val acceptedRows = ensemble.accepted(lastWeek.candidateEdges.select("src", "dst").collect()
      .map(r => (r.getInt(0), r.getInt(1))))
    import spark.implicits._
    store.write(acceptedRows.toSeq.toDF("src", "dst", "score"))

    // Published entity embedding h_e for the preference/serving layer:
    // the ensemble's fused embedding (centred + L2-normalised — GNN
    // embeddings carry a large common component that would dominate dot
    // products) concatenated with the stage-I feature embeddings E^Se/E^Co.
    // The feature blocks are first-class system artifacts (they feed ALPC);
    // serving them alongside the ensemble embedding is what keeps the
    // preference dot product topically sharp at our SF scale.
    val raw = Array.tabulate(scale.world.nEntities)(ensemble.fusedEmbedding)
    val dimMean = Array.tabulate(raw.head.length)(j => raw.map(_(j)).sum / raw.length)
    val fused = Array.tabulate(scale.world.nEntities) { e =>
      val z = EntityWorld.normalize(raw(e).zip(dimMean).map { case (x, m) => x - m })
      z ++ lastWeek.data.featSe(e) ++ lastWeek.data.featCo(e)
    }
    val entityEmb = UserPreference.embeddingsDf(spark, fused).cache()
    val userEmb = UserPreference.userEmbeddings(lastWeek.sequencesFlat, entityEmb)

    val services = OnlineSim.defaultServices(world, 0 until NServices)
    // the first request pays JIT and the decode of both embedding frames;
    // timed on its own so that every service row is a warm request
    val cold = Targeting.target(spark, world, store, userEmb, entityEmb,
      services.head.phrases, scale.ab.hops, scale.ab.topKUsers).runtimeMillis
    val rows = services.map { spec =>
      OnlineSim.runService(spark, world, store, userEmb, entityEmb,
        lastWeek.sequencesFlat, spec, scale.ab)
    }
    Result(rows, cold)
  }

  def format(r: Result): String = {
    val sb = new StringBuilder
    sb ++= "Table III: Online experiments performance (measured | paper)\n"
    sb ++= f"${"Service"}%-16s ${"dExposure"}%-18s ${"dConversion"}%-19s ${"dCVR"}%-19s ${"Runtime"}%-22s\n"
    r.rows.zip(paper).foreach { case (m, p) =>
      sb ++= f"${m.service}%-16s ${m.exposureGainPct}%+6.2f%% | ${p.exposure}%+5.2f%%  " +
        f"${m.conversionGainPct}%+7.2f%% | ${p.conversion}%+6.2f%%  " +
        f"${m.cvrGainPct}%+7.2f%% | ${p.cvr}%+6.2f%%  " +
        f"${m.runtimeMillis / 1000.0}%7.3fs | ${p.minutes}%4.1f min\n"
    }
    sb ++= f"  Runtime: warm request per service, median ${r.warmMedianMillis / 1000.0}%.3fs; " +
      f"the cold first request (JIT, embedding decode) took ${r.coldMillis / 1000.0}%.3fs\n"
    sb ++= f"  (paper services are Alipay campaigns; ours are synthetic topic services at SF scale)\n"
    sb.toString
  }
}
