package repro.candidate

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, IntegerType, StructField, StructType}
import repro.world.EntityWorld
import scala.collection.mutable
import scala.util.Random

/** TRMP Stage I — candidate generation (paper §III-B1).
  *
  * Builds the initial entity graph `G^C` as the union of
  *   - co-occurrence candidates: top-k cosine neighbours in the Skip-gram
  *     embedding space `E^Co`, and
  *   - semantic candidates: top-k cosine neighbours in the BERT-like space
  *     `E^Se`.
  * The k-NN runs on the driver, which holds both embedding matrices already
  * (a few hundred to a few thousand rows of 16 values): one pass over all
  * pairs keeps each entity's k best in a sorted array of size k.
  *
  * Also provides the popularity-sampling pair generator used by the paper's
  * `TRMP w.o. E&R_s` ablation row.
  */
object CandidateGeneration {

  val RelCooc = 0
  val RelSemantic = 1

  final case class CandConfig(topKCooc: Int = 12, topKSem: Int = 8)

  /** Top-k cosine neighbours of every entity, on the driver: (src, dst, sim)
    * rows by ascending src, each src's k best by descending sim, ties by
    * ascending dst (the order a stable `sortBy(-sim)` over ascending dst
    * gives); no self-edges.
    */
  private[candidate] def knn(emb: Array[Array[Double]], k: Int): Array[(Int, Int, Double)] = {
    val n = emb.length
    val kk = math.max(0, math.min(k, n - 1))
    if (kk == 0) return Array.empty
    val out = new Array[(Int, Int, Double)](n * kk)
    val dst = new Array[Int](kk)
    val neg = new Array[Double](kk) // -sim, best first
    var src = 0
    while (src < n) {
      var size = 0
      var j = 0
      while (j < n) {
        if (j != src) {
          val s = -EntityWorld.cosine(emb(src), emb(j))
          // a later j displaces a kept row only with a strictly better -sim
          if (size < kk || java.lang.Double.compare(s, neg(kk - 1)) < 0) {
            var p = math.min(size, kk - 1)
            while (p > 0 && java.lang.Double.compare(s, neg(p - 1)) < 0) {
              neg(p) = neg(p - 1); dst(p) = dst(p - 1); p -= 1
            }
            neg(p) = s; dst(p) = j
            if (size < kk) size += 1
          }
        }
        j += 1
      }
      var r = 0
      while (r < kk) { out(src * kk + r) = (src, dst(r), -neg(r)); r += 1 }
      src += 1
    }
    out
  }

  private val EdgeSchema = StructType(Seq(
    StructField("src", IntegerType, nullable = false),
    StructField("dst", IntegerType, nullable = false),
    StructField("sim", DoubleType, nullable = false),
    StructField("rel_type", IntegerType, nullable = false)))

  private def edgeFrame(spark: SparkSession, rows: Seq[(Int, Int, Double, Int)]): DataFrame =
    spark.createDataFrame(java.util.Arrays.asList(rows.map(e => Row(e._1, e._2, e._3, e._4)): _*), EdgeSchema)

  /** The initial graph G^C: union of co-occurrence and semantic k-NN edges,
    * canonicalised to src < dst with the best sim and min rel_type per pair.
    * Built once on the driver and returned as a local relation sorted by
    * (src, dst), so its consumers collect it without a Spark job and in an
    * order that does not depend on partitioning.
    */
  def candidateGraph(spark: SparkSession, embCo: Array[Array[Double]],
                     embSe: Array[Array[Double]], cfg: CandConfig = CandConfig()): DataFrame = {
    val best = mutable.LongMap.empty[(Double, Int)]
    def add(edges: Array[(Int, Int, Double)], relType: Int): Unit = edges.foreach { case (u, v, sim) =>
      val key = (math.min(u, v).toLong << 32) | math.max(u, v)
      best.get(key) match {
        case Some((s, r)) => best(key) = (if (java.lang.Double.compare(sim, s) > 0) sim else s, math.min(r, relType))
        case None         => best(key) = (sim, relType)
      }
    }
    add(knn(embCo, cfg.topKCooc), RelCooc)
    add(knn(embSe, cfg.topKSem), RelSemantic)
    val keys = best.keysIterator.toArray
    java.util.Arrays.sort(keys)
    edgeFrame(spark, keys.toSeq.map { key =>
      val (sim, rel) = best(key)
      ((key >>> 32).toInt, key.toInt, sim, rel)
    })
  }

  /** Ablation baseline `TRMP w.o. E&R_s`: entity pairs drawn from the Entity
    * Dict by popularity sampling (no embeddings at all). Produces the same
    * average out-degree as the candidate stage so AEEC is comparable.
    */
  def popularitySampledPairs(spark: SparkSession, world: EntityWorld,
                             avgDegree: Int, seed: Long = 41L): DataFrame = {
    import spark.implicits._
    val n = world.cfg.nEntities
    val pops = world.entities.map(_.popularity)
    val cum = pops.scanLeft(0.0)(_ + _).tail
    val total = cum.last
    val rng = new Random(seed)
    def draw(): Int = {
      val x = rng.nextDouble() * total
      val i = java.util.Arrays.binarySearch(cum, x)
      math.min(if (i >= 0) i else -i - 1, n - 1)
    }
    val pairs = scala.collection.mutable.Set[(Int, Int)]()
    val target = n.toLong * avgDegree / 2
    var guard = 0
    while (pairs.size < target && guard < target * 20) {
      val u = draw(); val v = draw()
      if (u != v) pairs += ((math.min(u, v), math.max(u, v)))
      guard += 1
    }
    pairs.toSeq.map { case (u, v) => (u, v, 0.0, RelCooc) }.toDF("src", "dst", "sim", "rel_type")
  }
}
