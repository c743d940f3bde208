package repro.linkpred

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.EntityGraph
import scala.collection.mutable
import scala.util.Random

/** Train/test material for one link-prediction dataset (paper §IV-A2).
  *
  * Mirrors the paper's protocol on Dataset-M: 10% of existing relations
  * removed as positive test data with an equal number of sampled non-links as
  * negative test data; remaining 90% are training positives with
  * `negRatio`× sampled non-links as training negatives (paper: 6M pos /
  * 18M neg → negRatio 3).
  *
  * @param featSe semantic (BERT-like) features per entity
  * @param featCo co-occurrence (Skip-gram) features per entity
  */
final case class LinkPredData(
    n: Int,
    trainGraph: EntityGraph,
    trainPos: Array[(Int, Int)],
    trainNeg: Array[(Int, Int)],
    testPos: Array[(Int, Int)],
    testNeg: Array[(Int, Int)],
    featSe: Array[Array[Double]],
    featCo: Array[Array[Double]],
    seed: Long) {

  /** Concatenated per-entity features [e^Se, e^Co] — the GNN input (eq. 1). */
  lazy val features: Array[Array[Double]] = Array.tabulate(n)(i => featSe(i) ++ featCo(i))

  def trainPairs: Array[(Int, Int)] = trainPos ++ trainNeg
  def trainLabels: Array[Double] = Array.fill(trainPos.length)(1.0) ++ Array.fill(trainNeg.length)(0.0)

  /** Size of the class-balanced set ALPC's threshold task and the ensemble
    * train on: every positive, then as many negatives (all of them if fewer).
    * The set is the first `balancedCount` rows of `trainPairs` / `trainLabels`.
    */
  def balancedCount: Int = trainPos.length + math.min(trainPos.length, trainNeg.length)
}

object LinkPredData {

  /** Splits a candidate edge DataFrame (src, dst, rel_type) into the paper's
    * train/test protocol, on the driver. The rows are collected and sorted
    * by (src, dst, rel_type); an edge is held out for test when its keyed
    * hash `testDraw(seed, src, dst)` is below `testFrac`, so the split
    * depends on the edge set and the seed, not on how the rows arrive.
    * Negatives are drawn from `Random(seed)` after that.
    */
  def split(spark: SparkSession, edges: DataFrame, n: Int,
            featSe: Array[Array[Double]], featCo: Array[Array[Double]],
            testFrac: Double = 0.10, negRatio: Int = 3, seed: Long = 53L): LinkPredData = {
    val rows = edges.select("src", "dst", "rel_type").collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getInt(2))).sorted
    val (testRows, trainPosRel) = rows.partition { case (u, v, _) => testDraw(seed, u, v) < testFrac }

    val trainPos = trainPosRel.map { case (u, v, _) => (u, v) }
    val testPos = testRows.map { case (u, v, _) => (u, v) }
    require(trainPos.nonEmpty, s"split: no training positives left of ${trainPos.length + testPos.length} " +
      s"candidate edges, ${testPos.length} of them held out for test (testFrac $testFrac); too small to train on")

    val existing = mutable.LongMap.empty[Unit]
    (trainPos ++ testPos).foreach { case (u, v) => existing(key(u, v)) = (); existing(key(v, u)) = () }
    val rng = new Random(seed)
    def sampleNonEdges(count: Int): Array[(Int, Int)] = {
      val out = mutable.ArrayBuffer[(Int, Int)]()
      val seen = mutable.LongMap.empty[Unit]
      var guard = 0
      while (out.length < count && guard < count * 50) {
        val u = rng.nextInt(n); val v = rng.nextInt(n)
        val a = math.min(u, v); val b = math.max(u, v)
        val p = key(a, b)
        if (u != v && !existing.contains(p) && !seen.contains(p)) { seen(p) = (); out += ((a, b)) }
        guard += 1
      }
      out.toArray
    }
    val trainNeg = sampleNonEdges(trainPos.length * negRatio)
    val testNeg = sampleNonEdges(testPos.length)

    // the train graph the GNNs propagate over must not contain test edges
    val g = EntityGraph.fromEdges(trainPosRel.toIndexedSeq, n)
    LinkPredData(n, g, trainPos, trainNeg, testPos, testNeg, featSe, featCo, seed)
  }

  /** One long per ordered pair, for the membership sets. */
  private def key(u: Int, v: Int): Long = (u.toLong << 32) | (v & 0xffffffffL)

  /** A uniform draw in [0, 1) keyed by (seed, src, dst): the SplitMix64
    * finaliser (Steele, Lea & Flood, OOPSLA 2014) of the packed pair, mixed
    * with the finalised seed; the top 53 bits scaled to a double.
    */
  private[linkpred] def testDraw(seed: Long, src: Int, dst: Int): Double =
    (mix64(mix64(seed + 0x9e3779b97f4a7c15L) ^ key(src, dst)) >>> 11).toDouble / (1L << 53)

  private def mix64(x: Long): Long = {
    var z = x
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}
