package repro.embed

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import repro.ner.EntitySequenceExtractor
import scala.util.Random

/** Skip-gram with negative sampling (SGNS) over user entity sequences —
  * produces the co-occurrence embedding matrix `E^Co` of TRMP stage I.
  *
  * The (center, context) pairs come from a window slide over each user's
  * sequence and the embedding table is trained on the driver (the paper's
  * word2vec runs on a parameter server — at our SF the sequences are a few
  * tens of thousands of positions and the table a few thousand rows, so a
  * driver loop is the faithful equivalent).
  */
object SkipGram {

  final case class SgConfig(dim: Int = 16, window: Int = 2, epochs: Int = 3, seed: Long = 23L)

  /** Negative samples per (center, context) pair. */
  private val Negatives = 5

  /** Initial SGD step, decayed linearly per epoch to a floor of a tenth. */
  private val LearningRate = 0.05

  /** (center, context) pairs of every user sequence: each pair of positions
    * at most `window` ranks apart, in canonical (user, center rank, context
    * rank) order. Input: (user_id, rank, entity_id) rows with distinct ranks
    * per user, as `EntitySequenceExtractor.flattened` gives. The rows are
    * collected in (user, rank) order (`EntitySequenceExtractor.sortedRows`,
    * one per sequence position) and a window of `window` slides over each
    * user's sequence (Mikolov et al., 2013), so the pairs are the multiset a
    * self-join of `flat` on user within `window` ranks gives, in an order
    * that does not depend on how Spark lays out the rows.
    */
  def pairArray(flat: DataFrame, window: Int): Array[(Int, Int)] = {
    val rows = EntitySequenceExtractor.sortedRows(flat)
    val out = Array.newBuilder[(Int, Int)]
    var start = 0
    while (start < rows.length) {
      val user = rows(start)._1
      var end = start
      while (end < rows.length && rows(end)._1 == user) end += 1
      var i = start
      while (i < end) {
        val (_, ri, center) = rows(i)
        var j = math.max(start, i - window)
        while (j < math.min(end, i + window + 1)) {
          if (j != i && math.abs(ri.toLong - rows(j)._2) <= window) out += ((center, rows(j)._3))
          j += 1
        }
        i += 1
      }
      start = end
    }
    out.result()
  }

  private val PairSchema = StructType(Seq(
    StructField("center", IntegerType, nullable = false),
    StructField("context", IntegerType, nullable = false)))

  /** `pairArray` as a local relation (center, context), rows in the same order. */
  def pairs(flat: DataFrame, window: Int): DataFrame = {
    val rows = pairArray(flat, window).map { case (c, x) => Row(c, x) }
    flat.sparkSession.createDataFrame(java.util.Arrays.asList(rows: _*), PairSchema)
  }

  /** Trains SGNS and returns the input-side embedding matrix (nEntities×dim). */
  def train(flat: DataFrame, nEntities: Int, cfg: SgConfig = SgConfig()): Array[Array[Double]] =
    trainOnPairs(pairArray(flat, cfg.window), nEntities, cfg)

  /** Core SGNS loop — exposed separately for unit testing on tiny corpora. */
  def trainOnPairs(pairRows: Array[(Int, Int)], nEntities: Int, cfg: SgConfig): Array[Array[Double]] = {
    val rng = new Random(cfg.seed)
    def init() = Array.fill(nEntities, cfg.dim)((rng.nextDouble() - 0.5) / cfg.dim)
    val emb = init()   // input vectors (the product of this stage)
    val ctx = init()   // output vectors
    // unigram^0.75 negative-sampling table, as in word2vec
    val counts = new Array[Double](nEntities)
    pairRows.foreach { case (c, _) => counts(c) += 1 }
    val weights = counts.map(c => math.pow(c + 1.0, 0.75))
    val cum = weights.scanLeft(0.0)(_ + _).tail
    val total = cum.last
    def sampleNeg(): Int = {
      val x = rng.nextDouble() * total
      val i = java.util.Arrays.binarySearch(cum, x)
      val idx = if (i >= 0) i else -i - 1
      math.min(idx, nEntities - 1)
    }

    val order = pairRows.indices.toArray
    var epoch = 0
    while (epoch < cfg.epochs) {
      // deterministic shuffle per epoch
      val r = new Random(cfg.seed + epoch)
      var i = order.length - 1
      while (i > 0) { val j = r.nextInt(i + 1); val t = order(i); order(i) = order(j); order(j) = t; i -= 1 }
      val lr = LearningRate * (1.0 - epoch.toDouble / cfg.epochs).max(0.1)
      order.foreach { pi =>
        val (center, context) = pairRows(pi)
        sgdStep(emb(center), ctx(context), 1.0, lr)
        var n = 0
        while (n < Negatives) {
          val neg = sampleNeg()
          if (neg != context) sgdStep(emb(center), ctx(neg), 0.0, lr)
          n += 1
        }
      }
      epoch += 1
    }
    emb
  }

  private def sgdStep(w: Array[Double], c: Array[Double], label: Double, lr: Double): Unit = {
    var dot = 0.0
    var i = 0
    while (i < w.length) { dot += w(i) * c(i); i += 1 }
    val g = (1.0 / (1.0 + math.exp(-dot)) - label) * lr
    i = 0
    while (i < w.length) {
      val wi = w(i)
      w(i) -= g * c(i)
      c(i) -= g * wi
      i += 1
    }
  }
}
