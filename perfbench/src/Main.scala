package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.{CoreAccess, Trmp}
import repro.eval.{Annotators, OnlineSim}
import repro.linkpred.GnnTraining
import repro.nn.Tensor
import repro.online.Targeting
import repro.preference.UserPreference
import repro.storage.GraphStore
import repro.world.EntityWorld
import scala.collection.mutable
import scala.util.Random

/** Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --work <dir>`; a traced run also gets `--untraced-ms` and
  * `--untraced-digest` from the untraced run of the same seed.
  */
final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, work: String,
                      untracedMs: Option[Double], untracedDigest: Option[String])

object Args {
  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      need("work"), m.get("untraced-ms").map(_.toDouble), m.get("untraced-digest"))
  }
}

/** Runs one workload. Prints the published edge-set digest, then the result
  * as the last line of stdout.
  */
object Main {
  def main(argv: Array[String]): Unit = {
    val args = Args.parse(argv)
    require(Workloads.Names.contains(args.workload),
      s"unknown workload ${args.workload}; expected one of ${Workloads.Names.mkString(", ")}")
    val out = new Workloads(args).run()
    println(s"digest ${out.digest}")
    println(out.json)
  }
}

/** Metric name → (value, unit), in print order. */
final class Metrics {
  val values = mutable.LinkedHashMap[String, (Double, String)]()
  def update(name: String, unit: String, v: Double): Unit = values(name) = (v, unit)
}

final case class Outcome(correct: Boolean, attempted: Long, failed: Long, metrics: Metrics, digest: String) {
  def json: String = {
    val ms = metrics.values.map { case (k, (v, u)) =>
      val num = if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)
      s""""$k": {"value": $num, "unit": "$u"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    (s((s.length - 1) / 2) + s(s.length / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = xs.sum / xs.length

  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }
}

object Workloads {
  val Names = Seq("offline_trmp", "online_targeting")

  /** Every online run serves at least one full block of the k mix, after
    * one untimed k=1 warm-up request.
    */
  val MinRequests = 3
  /** Table III services timed after each offline_trmp run. */
  val Services = 1
  /** The simulated marketer's curation size (Targeting.target's default). */
  val Curated = 25

  /** Spans that submit Spark jobs: jobs, stages, tasks, task busy time and
    * shuffle bytes are reported for each.
    */
  val SparkSpans = Seq("ner.extract", "embed.sgns_pairs", "linkpred.split", "core.publish_score",
    "storage.write", "preference.user_emb", "online.target", "storage.khop", "preference.score")
  /** Spans that re-execute uncached lineage (e.g. G^C per collect). */
  val RecomputeSpans = Seq("embed.sgns_pairs", "linkpred.split", "core.publish_score",
    "preference.user_emb", "online.target", "storage.khop", "preference.score")
  /** Spans that allocate enough for their JVM GC time to be reported. */
  val GcSpans = Seq("world.behaviors", "ner.extract", "embed.sgns_pairs", "linkpred.split",
    "core.alpc_fit", "core.publish_score", "preference.user_emb",
    "online.target", "storage.khop", "preference.score")
  /** Spans reported per call (mean) instead of as a run total. */
  val RequestSpans = Set("online.target", "storage.khop", "preference.score")

  /** Order-independent fingerprint of a published edge set, scores included. */
  def digest(edges: Array[(Int, Int, Double)]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    edges.sortBy(e => (e._1, e._2)).foreach { case (u, v, s) =>
      md.update(s"$u,$v,${java.lang.Double.doubleToLongBits(s)};".getBytes("UTF-8"))
    }
    md.digest().take(8).map(b => f"$b%02x").mkString
  }
}

/** One run of one workload. Both workloads run the offline path (TRMP → publish
  * → daily user-embedding job) and then serve requests from what it published;
  * they differ in which part is the measured one.
  */
final class Workloads(a: Args) {
  import Stats._
  import Workloads._

  private val metrics = new Metrics
  private val problems = mutable.ArrayBuffer[String]()
  private var attempted = 0L
  private var failed = 0L

  private val setupT0 = System.nanoTime()
  private val spark: SparkSession = SparkSession.builder
    .master(s"local[${math.min(4, Runtime.getRuntime.availableProcessors)}]")
    .appName("perfbench")
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.ui.enabled", false)
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", s"${a.work}/spark-local")
    .config("spark.sql.warehouse.dir", s"${a.work}/warehouse")
    .getOrCreate()
  spark.sparkContext.setLogLevel("ERROR")
  private val sparkStartS = (System.nanoTime() - setupT0) / 1e9

  private val tracer: Option[Tracer] = if (!a.trace) None else {
    val l = new GroupListener
    spark.sparkContext.addSparkListener(l)
    Some(new Tracer(spark.sparkContext, l))
  }
  private val sp: Spans = tracer.getOrElse(NoSpans)
  private val counts = new Pipeline.Counts

  private val worldCfg = Inputs.world(a.seed)
  private val n = worldCfg.nEntities
  /** The world is cheap to build, so set-up takes the median of three builds. */
  private val (world, worldS) = {
    val builds = Seq.fill(3)(seconds(new EntityWorld(worldCfg)))
    (builds.last._1, median(builds.map(_._2)))
  }

  private var lastTrmp: Trmp.TrmpResult = _
  private var serving: Serving = _
  private var store: GraphStore = _
  private val latencies = mutable.ArrayBuffer[Double]()
  private val affinities = mutable.ArrayBuffer[Double]()
  private var checkerTested = false

  def run(): Outcome = {
    checkInputs()
    var setupS = 0.0
    val (pub, offlineS) = a.workload match {
      case "offline_trmp" =>
        setupS = sparkStartS + worldS
        val passes = offlinePasses()
        (serving.published, median(passes))
      case "online_targeting" =>
        val t0 = System.nanoTime()
        val (p, secs) = offlinePass(forServing = true)
        serve(Inputs.requests(world, a.seed + 1000003L, 1).head.copy(k = 1), timed = false)
        setupS = sparkStartS + worldS + (System.nanoTime() - t0) / 1e9
        requestLoop()
        (p, secs)
    }
    val digest = Workloads.digest(pub.accepted)
    tracer match {
      case None =>
        metrics("setup_s", "s") = setupS
        metrics("offline_run_s", "s") = offlineS
        metrics("published_acc", "ratio") = Annotators.evaluate(world, pub.accepted.map(e => (e._1, e._2))).acc
        metrics("request_p50_ms", "ms") = median(latencies.toSeq)
        metrics("target_affinity", "ratio") = mean(affinities.toSeq)
        System.gc(); System.gc()
        metrics("heap_mb", "MB") = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
      case Some(t) =>
        t.finish()
        Files.writeString(Paths.get(a.work, s"trace-${a.workload}-${a.seed}.jsonl"), t.toJson + "\n")
        layerMetrics(t)
        a.untracedDigest.filter(_ != digest).foreach { d =>
          problems += s"traced composition published edge set $digest, untraced $d"
        }
        a.untracedMs.foreach { u =>
          val traced = a.workload match {
            case "offline_trmp" => offlineS * 1000 - t.named(Pipeline.Probe).map(_.ms).sum
            case _              => median(t.named("online.target").map(_.ms))
          }
          metrics("trace.overhead_pct", "%") = (traced - u) / u * 100
        }
    }
    Console.err.println(s"[perfbench] digest=$digest edges=${pub.accepted.length} " +
      s"latencies_ms=${latencies.map(_.round).mkString(",")}")
    problems.take(20).foreach(p => Console.err.println(s"[perfbench] problem: $p"))
    spark.stop()
    Outcome(problems.isEmpty && failed == 0, attempted, failed, metrics, digest)
  }

  // ---------------------------------------------------------------- inputs

  /** Same seed → identical world and request list; the next seed → different. */
  private def checkInputs(): Unit = {
    def inputs(s: Long) = {
      val w = new EntityWorld(Inputs.world(s))
      (w.entities.toSeq.map(e => (e.etype, e.latent.toSeq)), w.users.toSeq.map(_.latent.toSeq),
        Inputs.requests(w, s, 4 * MinRequests), Inputs.trmp(s))
    }
    val (same1, same2, other) = (inputs(a.seed), inputs(a.seed), inputs(a.seed + 1))
    if (same1 != same2) problems += "one seed gave two different input sets"
    if (same1.productIterator.zip(other.productIterator).exists { case (x, y) => x == y })
      problems += "seeds differing by one gave an identical world, request list or TRMP config"
  }

  // ---------------------------------------------------------------- offline

  /** TRMP → publish step → GraphStore.write → daily user embeddings; the
    * result becomes the serving state. With `forServing`, the cheap config of
    * `Inputs.servingTrmp` that publishes every candidate. Returns the
    * published week and the pass's wall time.
    */
  private def offlinePass(forServing: Boolean): (Published, Double) = {
    val cfg = if (forServing) Inputs.servingTrmp(a.seed) else Inputs.trmp(a.seed)
    if (serving != null) serving.release()
    store = new GraphStore(spark, Files.createTempDirectory(Paths.get(a.work), "store").resolve("graph").toString)
    val (s, secs) = seconds {
      lastTrmp = tracer match {
        case Some(t) => Pipeline.trmpTraced(spark, world, cfg, t, counts.add)
        case None    => Trmp.run(spark, world, cfg)
      }
      Pipeline.load(spark, store, Pipeline.publish(lastTrmp, n, sp, acceptAll = forServing), sp)
    }
    serving = s
    attempted += 1
    val before = problems.length
    checkPublished()
    if (problems.length > before) failed += 1
    (s.published, secs)
  }

  /** Offline passes until `seconds` have passed (at least one), then the first
    * Table III services against the last one, as `TableIII.run` does.
    */
  private def offlinePasses(): Seq[Double] = {
    val t0 = System.nanoTime()
    val passes = mutable.ArrayBuffer[Double]()
    val digests = mutable.Set[String]()
    do {
      val (p, secs) = offlinePass(forServing = false)
      passes += secs
      digests += Workloads.digest(p.accepted)
    } while (!a.trace && (System.nanoTime() - t0) / 1e9 < a.seconds)
    if (digests.size > 1) problems += s"offline passes with one seed published ${digests.size} edge sets"
    OnlineSim.defaultServices(world, 0 until Services).foreach { spec =>
      serve(Request(spec.topic, spec.phrases, Inputs.Scale.ab.hops, Inputs.Scale.ab.topKUsers))
    }
    passes.toSeq
  }

  /** The store holds exactly the accepted relations, and every user vector is
    * the mean of the fused embeddings over that user's sequence.
    */
  private def checkPublished(): Unit = {
    val pub = serving.published
    val stored = store.edges().select("src", "dst", "score").collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getDouble(2))).sortBy(e => (e._1, e._2)).toSeq
    if (stored != pub.accepted.sortBy(e => (e._1, e._2)).toSeq)
      problems += s"store holds ${stored.length} edges, not the ${pub.accepted.length} accepted"
    val seqs = pub.flat.select("user_id", "entity_id").collect()
      .groupBy(_.getInt(0)).map { case (u, rows) => u -> rows.map(_.getInt(1)) }
    val got = serving.userEmb.collect().map(r => r.getInt(0) -> r.getSeq[Double](1).toArray).toMap
    if (got.keySet != seqs.keySet) problems += s"user embeddings for ${got.size} users, sequences for ${seqs.size}"
    val dim = pub.fused.head.length
    val bad = seqs.count { case (u, es) =>
      val want = Array.tabulate(dim)(j => es.map(e => pub.fused(e)(j)).sum / es.length)
      got.get(u).forall(v => v.length != dim || v.indices.exists(j => math.abs(v(j) - want(j)) > 1e-9))
    }
    if (bad > 0) problems += s"$bad user embeddings differ from the mean of their sequence"
  }

  // ---------------------------------------------------------------- online

  /** Closed loop, one client, no think time: the next request is sent when the
    * previous response has been checked. Runs `seconds`, at least `MinRequests`.
    */
  private def requestLoop(): Unit = {
    val reqs = Inputs.requests(world, a.seed, 1000)
    val t0 = System.nanoTime()
    var i = 0
    while (i < MinRequests || (System.nanoTime() - t0) / 1e9 < a.seconds) {
      serve(reqs(i % reqs.length))
      i += 1
    }
  }

  /** One timed `Targeting.target` call, checked against the BFS oracle. Traced,
    * it runs in a span and is followed by isolated probes of its k-hop and
    * scoring layers on the same inputs.
    */
  private def serve(req: Request, timed: Boolean = true): Unit = {
    attempted += 1
    try {
      val (res, secs) = seconds(sp("online.target") {
        Targeting.target(spark, world, store, serving.userEmb, serving.entityEmb,
          req.phrases, req.k, req.topKUsers, Curated)
      })
      if (timed) latencies += secs * 1000
      val r = Response(res.seedIds,
        res.expandedEntities.collect().map(x => (x.getInt(0), x.getInt(1), x.getDouble(2))), res.targetUsers)
      res.expandedEntities.unpersist()
      check(req, r)
      if (tracer.isDefined) probe(req, r)
    } catch {
      case e: Exception => failed += 1; problems += s"request $req threw $e"
    }
  }

  private def probe(req: Request, r: Response): Unit = {
    val hop = sp("storage.khop")(store.kHop(r.seedIds, req.k).collect())
    counts.add("storage.khop_entities", hop.length)
    counts.add("requests", 1)
    val ids = r.expanded.map(_._1).sorted.take(Curated).toSeq
    sp("preference.score") {
      UserPreference.preferenceScores(spark, serving.userEmb, serving.entityEmb, ids).collect()
    }
  }

  /** Counts the response failed on any mismatch with the oracle. The first
    * correct response also proves the checker rejects corrupted copies of it.
    */
  private def check(req: Request, r: Response): Unit = {
    val seeds = req.phrases.flatMap(world.idOf)
    val expected = ResponseCheck.expand(serving.published.accepted, seeds, req.k)
    val ps = ResponseCheck.problems(r, seeds, expected, req.topKUsers, serving.users)
    if (ps.nonEmpty) { failed += 1; problems ++= ps.map(p => s"request $req: $p") }
    else if (!checkerTested) {
      checkerTested = true
      ResponseCheck.corruptions(r).foreach { case (what, bad) =>
        if (ResponseCheck.problems(bad, seeds, expected, req.topKUsers, serving.users).isEmpty)
          problems += s"checker accepted a response with a $what"
      }
    }
    if (r.users.nonEmpty) affinities += relativeAffinity(req.topic, r.users.map(_._1))
  }

  // ---------------------------------------------------------------- layers

  /** Mean latent cosine of the exported users to the service topic's centroid,
    * as a share of the same mean over the best possible export of that size
    * (the users closest to the centroid). Dividing by the best possible export
    * takes out how easy the topic is, which otherwise varies by seed.
    */
  private def relativeAffinity(topic: Int, users: Seq[Int]): Double = {
    val c = world.topicCentroids(topic)
    val cos = world.users.map(u => EntityWorld.cosine(u.latent, c))
    val best = cos.sorted(Ordering[Double].reverse).take(users.length)
    mean(users.map(cos(_))) / mean(best.toSeq)
  }

  /** The `nn` kernel probe: `Tensor.mm` alone at the ALPC and ensemble head
    * shapes of this run's data; median of five after two warm-up calls.
    */
  private def mmProbe(name: String, rows: Int, inner: Int, out: Int): Unit = {
    val r = new Random(a.seed)
    val x = Tensor.glorot(rows, inner, r)
    val w = Tensor.glorot(inner, out, r)
    val times = Seq.fill(7)(seconds(x.mm(w))._2 * 1000).drop(2)
    metrics(s"nn.mm_${name}_ms", "ms") = median(times)
    metrics(s"nn.mm_${name}_flops", "flop") = 2.0 * rows * inner * out
  }

  private def layerMetrics(t: Tracer): Unit = {
    def spans(name: String) = t.named(name)
    def agg(name: String)(f: Span => Double): Double = {
      val xs = spans(name).map(f)
      if (xs.isEmpty) 0.0 else if (RequestSpans(name)) mean(xs) else xs.sum
    }
    def c(name: String) = counts.values.getOrElse(name, 0.0)
    Seq("world.behaviors", "ner.tag", "ner.extract", "embed.sgns_pairs", "embed.sgns_train",
      "embed.semantic", "candidate.knn", "linkpred.split", "core.alpc_fit", "core.ensemble_fit",
      "core.publish_score", "storage.write", "preference.user_emb").foreach { s =>
      metrics(s"${s}_ms", "ms") = agg(s)(_.ms)
    }
    Seq("online.target", "storage.khop", "preference.score").foreach { s =>
      metrics(s"${s}_ms", "ms") = median(spans(s).map(_.ms))
    }
    metrics("ner.tagged_rows", "rows") = c("ner.tagged_rows")
    metrics("embed.sgns_pairs", "pairs") = c("embed.sgns_pairs")
    metrics("candidate.edges", "edges") = c("candidate.edges")
    metrics("linkpred.train_pairs", "pairs") = c("linkpred.train_pairs")
    val pub = serving.published
    metrics("core.scored_pairs", "pairs") = pub.candidates
    metrics("core.accept_ratio", "ratio") = pub.accepted.length.toDouble / pub.candidates
    metrics("storage.edges", "edges") = pub.accepted.length
    metrics("preference.users", "users") = serving.users
    metrics("storage.khop_entities", "entities") = c("storage.khop_entities") / c("requests")

    val data = lastTrmp.weekly.last.data
    val z = lastTrmp.weekly.last.alpc.z
    val cfg = Inputs.trmp(a.seed)
    mmProbe("alpc", data.trainPairs.length, GnnTraining.pairInputDim(z.cols) + 4, cfg.alpcCfg.dim)
    mmProbe("ens", math.min(cfg.ensCfg.maxTrainPairs, data.trainPos.length + math.min(data.trainPos.length,
      data.trainNeg.length)), CoreAccess.ensembleHeadInputDim(2 * cfg.ensembleWindow, z.cols), z.cols)

    SparkSpans.foreach { s =>
      metrics(s"$s.spark.jobs", "jobs") = agg(s)(_.spark.jobs.toDouble)
      metrics(s"$s.spark.stages", "stages") = agg(s)(_.spark.stages.toDouble)
      metrics(s"$s.spark.tasks", "tasks") = agg(s)(_.spark.tasks.toDouble)
      metrics(s"$s.spark.task_ms", "ms") = agg(s)(_.spark.taskMs.toDouble)
      if (s != "storage.write")
        metrics(s"$s.spark.shuffle_write_bytes", "bytes") = agg(s)(_.spark.shuffleWriteBytes.toDouble)
    }
    RecomputeSpans.foreach { s =>
      metrics(s"$s.spark.recomputed_stages", "stages") = agg(s)(_.spark.recomputedStages.toDouble)
    }
    GcSpans.foreach(s => metrics(s"$s.jvm.gc_ms", "ms") = agg(s)(_.gcMs.toDouble))
    metrics("spark.recomputed_stages", "stages") =
      t.spans.filter(_.name != Pipeline.Probe).map(_.spark.recomputedStages.toDouble).sum
  }
}

