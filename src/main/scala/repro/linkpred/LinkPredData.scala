package repro.linkpred

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.EntityGraph
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
    * train/test protocol. Splitting and negative sampling are done with Spark
    * ops; the result is collected for the driver-side trainers.
    */
  def split(spark: SparkSession, edges: DataFrame, n: Int,
            featSe: Array[Array[Double]], featCo: Array[Array[Double]],
            testFrac: Double = 0.10, negRatio: Int = 3, seed: Long = 53L): LinkPredData = {
    // one evaluation of the input, so each edge lands in exactly one of test and train
    val (testRows, trainRows) = edges.select("src", "dst", "rel_type").withColumn("rnd", rand(seed))
      .collect().partition(_.getDouble(3) < testFrac)

    val trainPosRel = trainRows.map(r => (r.getInt(0), r.getInt(1), r.getInt(2)))
    val trainPos = trainPosRel.map { case (u, v, _) => (u, v) }
    val testPos = testRows.map(r => (r.getInt(0), r.getInt(1)))
    require(trainPos.nonEmpty, s"split: no training positives left of ${trainPos.length + testPos.length} " +
      s"candidate edges, ${testPos.length} of them held out for test (testFrac $testFrac); too small to train on")

    val existing: Set[(Int, Int)] =
      (trainPos ++ testPos).flatMap { case (u, v) => Seq((u, v), (v, u)) }.toSet
    val rng = new Random(seed)
    def sampleNonEdges(count: Int): Array[(Int, Int)] = {
      val out = scala.collection.mutable.ArrayBuffer[(Int, Int)]()
      val seen = scala.collection.mutable.Set[(Int, Int)]()
      var guard = 0
      while (out.length < count && guard < count * 50) {
        val u = rng.nextInt(n); val v = rng.nextInt(n)
        val p = (math.min(u, v), math.max(u, v))
        if (u != v && !existing.contains(p) && !seen.contains(p)) { seen += p; out += p }
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
}
