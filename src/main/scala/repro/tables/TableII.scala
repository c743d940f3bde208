package repro.tables

import org.apache.spark.sql.SparkSession
import repro.candidate.CandidateGeneration
import repro.core.{Alpc, AlpcConfig, AlpcScorer}
import repro.embed.SkipGram
import repro.eval.Annotators
import repro.linkpred._
import repro.ner.{BertCrfSim, EntitySequenceExtractor}
import repro.world.{BehaviorGen, EntityWorld, WorldConfig}

/** Table II — "Performance comparison on offline datasets": AUC and
  * annotator-judged ACC of ten link-prediction methods on three sub-datasets
  * (A, B, C) sampled from the master candidate graph at different ratios,
  * mirroring the paper's Dataset-M protocol.
  *
  * AUC: held-out positive links vs sampled non-links.
  * ACC: the paper's metric is manual evaluation of the relations each method
  * *publishes*. To compare methods at equal volume (decision-threshold
  * artifacts would otherwise dominate), every method publishes its most
  * confident 40% of the held-out pairs — precision@K judged by the simulated
  * annotator panel. The 40% operating point is where ranking quality (not
  * just edge retrieval) differentiates methods; at K=|testPos| every
  * AUC≈0.9 method returns nearly the same set.
  */
object TableII {

  private val World = WorldConfig(nEntities = 1000, nTopics = 20, nUsers = 350)
  private val LogCfg = BehaviorGen.LogConfig(days = 20, sessionsPerDay = 2, mentionsPerSession = 5)
  private val CandCfg = CandidateGeneration.CandConfig(topKCooc = 12, topKSem = 8)
  private val SgCfg = SkipGram.SgConfig(dim = 16, epochs = 2)

  /** entity-sampling ratios of datasets A, B, C (paper: 113k/42k/92k entities) */
  private val Ratios = Seq(0.95, 0.45, 0.75)

  /** Embedding width and base epoch budget of the neural methods. */
  private val Dim = 24
  private val Epochs = 35
  private val JudgeSample = 800

  final case class Cell(auc: Double, acc: Double)
  final case class Result(datasets: Seq[(String, Int, Long)], // name, #entities, #edges
                          cells: Map[(String, String), Cell]) // (method, dataset) -> metrics

  val methodOrder: Seq[String] = Seq("DeepWalk", "Node2Vec", "SEAL", "VGAE", "Geniepath",
    "CompGCN", "PaGNN", "ALPC", "ALPC_th-", "ALPC_cl-")

  /** Builds the master candidate graph once (full stage-I pipeline), then
    * induces each sub-dataset on a sampled entity subset.
    */
  def run(spark: SparkSession): Result = {
    val world = new EntityWorld(World)
    val logs = BehaviorGen.generate(spark, world, LogCfg)
    val tagged = BertCrfSim.tag(spark, world, logs)
    val flat = EntitySequenceExtractor.flattened(EntitySequenceExtractor.extract(tagged))
    val embCo = SkipGram.train(flat, World.nEntities, SgCfg)
    val embSe = repro.embed.SemanticEmbed.embed(world)
    val master = CandidateGeneration.candidateGraph(spark, embCo, embSe, CandCfg)
      .collect().map(r => (r.getInt(0), r.getInt(1), r.getInt(3)))

    val names = Seq("A", "B", "C")
    val datasets = names.zip(Ratios).map { case (name, ratio) =>
      val rng = new scala.util.Random(1000 + name.hashCode)
      val keep = (0 until World.nEntities).filter(_ => rng.nextDouble() < ratio)
      val remap = keep.zipWithIndex.toMap
      import spark.implicits._
      val edges = master.collect { case (u, v, rel) if remap.contains(u) && remap.contains(v) =>
        (remap(u), remap(v), rel)
      }.toSeq.toDF("src", "dst", "rel_type")
      val se = keep.map(embSe).toArray
      val co = keep.map(embCo).toArray
      val data = LinkPredData.split(spark, edges, keep.length, se, co, seed = 53 + name.hashCode)
      (name, keep.toArray, data)
    }

    val cells = scala.collection.mutable.Map[(String, String), Cell]()
    val dsInfo = datasets.map { case (name, keep, data) =>
      methods.foreach { m =>
        val scorer = m.fit(data)
        val testPairs = data.testPos ++ data.testNeg
        val scores = scorer.scoreAll(testPairs)
        val (posScores, negScores) = scores.splitAt(data.testPos.length)
        val auc = Metrics.auc(posScores, negScores)
        val predictedPositive: Array[(Int, Int)] = testPairs.zip(scores)
          .sortBy(-_._2).take(math.max(1, (data.testPos.length * 0.4).toInt)).map(_._1)
        // judge in *original* entity ids so latent relatedness is looked up right
        val origPairs = predictedPositive.map { case (u, v) => (keep(u), keep(v)) }
        val acc = Annotators.evaluate(world, origPairs, maxSample = JudgeSample).acc
        cells((m.name, name)) = Cell(auc, acc)
      }
      (name, keep.length, data.trainPos.length.toLong + data.testPos.length)
    }
    Result(dsInfo, cells.toMap)
  }

  private def methods: Seq[LinkPredictor] = Seq(
    new DeepWalk(dim = Dim, epochs = 2),
    new Node2Vec(dim = Dim, epochs = 2),
    new Seal(epochs = 200),
    new Vgae(dim = Dim, epochs = Epochs + 20),
    new GeniePathLP(dim = Dim, epochs = Epochs),
    new CompGcnLP(dim = Dim, epochs = Epochs),
    new PaGnn(dim = Dim, epochs = Epochs),
    new Alpc(AlpcConfig(dim = Dim, epochs = Epochs + 10)),
    new Alpc(AlpcConfig(dim = Dim, epochs = Epochs + 10, useThreshold = false)),
    new Alpc(AlpcConfig(dim = Dim, epochs = Epochs + 10, useContrastive = false)),
  )

  /** Paper's Table II values (AUC, ACC) per method per dataset. */
  val paper: Map[(String, String), Cell] = Map(
    ("DeepWalk", "A") -> Cell(0.846, 0.909), ("DeepWalk", "B") -> Cell(0.837, 0.911), ("DeepWalk", "C") -> Cell(0.852, 0.921),
    ("Node2Vec", "A") -> Cell(0.848, 0.915), ("Node2Vec", "B") -> Cell(0.839, 0.913), ("Node2Vec", "C") -> Cell(0.856, 0.932),
    ("SEAL", "A") -> Cell(0.868, 0.940), ("SEAL", "B") -> Cell(0.863, 0.936), ("SEAL", "C") -> Cell(0.873, 0.943),
    ("VGAE", "A") -> Cell(0.847, 0.928), ("VGAE", "B") -> Cell(0.857, 0.930), ("VGAE", "C") -> Cell(0.874, 0.939),
    ("Geniepath", "A") -> Cell(0.870, 0.944), ("Geniepath", "B") -> Cell(0.865, 0.942), ("Geniepath", "C") -> Cell(0.877, 0.945),
    ("CompGCN", "A") -> Cell(0.869, 0.942), ("CompGCN", "B") -> Cell(0.865, 0.943), ("CompGCN", "C") -> Cell(0.876, 0.944),
    ("PaGNN", "A") -> Cell(0.872, 0.951), ("PaGNN", "B") -> Cell(0.867, 0.951), ("PaGNN", "C") -> Cell(0.878, 0.955),
    ("ALPC", "A") -> Cell(0.879, 0.967), ("ALPC", "B") -> Cell(0.870, 0.961), ("ALPC", "C") -> Cell(0.883, 0.973),
    ("ALPC_th-", "A") -> Cell(0.875, 0.960), ("ALPC_th-", "B") -> Cell(0.868, 0.956), ("ALPC_th-", "C") -> Cell(0.882, 0.960),
    ("ALPC_cl-", "A") -> Cell(0.871, 0.950), ("ALPC_cl-", "B") -> Cell(0.862, 0.944), ("ALPC_cl-", "C") -> Cell(0.879, 0.953),
  )

  def format(r: Result): String = {
    val sb = new StringBuilder
    sb ++= "Table II: Performance comparison on offline datasets (measured | paper)\n"
    r.datasets.foreach { case (n, ents, edges) => sb ++= s"  Dataset $n: $ents entities, $edges positive links\n" }
    sb ++= f"${"Method"}%-10s"
    r.datasets.foreach { case (n, _, _) => sb ++= f"  ${n + " AUC"}%-15s ${n + " ACC"}%-15s" }
    sb ++= "\n"
    methodOrder.foreach { m =>
      sb ++= f"$m%-10s"
      r.datasets.foreach { case (n, _, _) =>
        val c = r.cells((m, n)); val p = paper((m, n))
        sb ++= f"  ${c.auc}%5.3f | ${p.auc}%5.3f  ${c.acc}%5.3f | ${p.acc}%5.3f"
      }
      sb ++= "\n"
    }
    sb.toString
  }
}
