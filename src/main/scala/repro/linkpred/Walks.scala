package repro.linkpred

import repro.embed.SkipGram
import repro.graph.EntityGraph
import scala.util.Random

/** Random-walk machinery shared by DeepWalk and Node2Vec. */
object Walks {

  /** Uniform first-order walks (DeepWalk). */
  def uniformWalks(g: EntityGraph, walksPerNode: Int, walkLen: Int, rng: Random): Array[Array[Int]] = {
    val out = scala.collection.mutable.ArrayBuffer[Array[Int]]()
    var u = 0
    while (u < g.n) {
      var w = 0
      while (w < walksPerNode) {
        if (g.degree(u) > 0) {
          val walk = new Array[Int](walkLen)
          walk(0) = u
          var i = 1
          while (i < walkLen) {
            val prev = walk(i - 1)
            val d = g.degree(prev)
            walk(i) = if (d == 0) prev else g.neighbors(g.offsets(prev) + rng.nextInt(d))
            i += 1
          }
          out += walk
        }
        w += 1
      }
      u += 1
    }
    out.toArray
  }

  /** Second-order biased walks (Node2Vec): unnormalised transition weight from
    * (t → v) to x is 1/p if x==t, 1 if x∈N(t), 1/q otherwise.
    */
  def biasedWalks(g: EntityGraph, walksPerNode: Int, walkLen: Int,
                  p: Double, q: Double, rng: Random): Array[Array[Int]] = {
    val out = scala.collection.mutable.ArrayBuffer[Array[Int]]()
    var u = 0
    while (u < g.n) {
      var w = 0
      while (w < walksPerNode) {
        if (g.degree(u) > 0) {
          val walk = new Array[Int](walkLen)
          walk(0) = u
          var i = 1
          while (i < walkLen) {
            val cur = walk(i - 1)
            val d = g.degree(cur)
            if (d == 0) walk(i) = cur
            else if (i == 1) walk(i) = g.neighbors(g.offsets(cur) + rng.nextInt(d))
            else {
              val prev = walk(i - 2)
              val prevNb = g.neighborSet(prev)
              val cand = g.neighborsOf(cur)
              val weights = cand.map { x =>
                if (x == prev) 1.0 / p else if (prevNb.contains(x)) 1.0 else 1.0 / q
              }
              val total = weights.sum
              var x = rng.nextDouble() * total
              var j = 0
              while (j < cand.length - 1 && x > weights(j)) { x -= weights(j); j += 1 }
              walk(i) = cand(j)
            }
            i += 1
          }
          out += walk
        }
        w += 1
      }
      u += 1
    }
    out.toArray
  }

  /** Turns walks into skip-gram (center, context) pairs within `window`. */
  def toPairs(walks: Array[Array[Int]], window: Int): Array[(Int, Int)] = {
    val out = scala.collection.mutable.ArrayBuffer[(Int, Int)]()
    walks.foreach { w =>
      var i = 0
      while (i < w.length) {
        var j = math.max(0, i - window)
        while (j <= math.min(w.length - 1, i + window)) {
          if (i != j) out += ((w(i), w(j)))
          j += 1
        }
        i += 1
      }
    }
    out.toArray
  }
}

/** A scorer over node embeddings: calibrated sigmoid of the dot product. */
final class EmbeddingScorer(emb: Array[Array[Double]], a: Double, b: Double) extends LinkScorer {
  def logits(pairs: Array[(Int, Int)]): Array[Double] =
    pairs.map { case (u, v) => a * EmbeddingScorer.dot(emb, u, v) + b }
}

object EmbeddingScorer {
  private def dot(emb: Array[Array[Double]], u: Int, v: Int): Double = {
    var dot = 0.0
    var i = 0
    while (i < emb(u).length) { dot += emb(u)(i) * emb(v)(i); i += 1 }
    dot
  }

  /** Calibrates on the train pairs and wraps the embedding table. */
  def calibrated(emb: Array[Array[Double]], data: LinkPredData): EmbeddingScorer = {
    val raw = data.trainPairs.map { case (u, v) => dot(emb, u, v) }
    val (a, b) = Calibration.fit(raw, data.trainLabels)
    new EmbeddingScorer(emb, a, b)
  }
}

/** DeepWalk (Perozzi et al., KDD'14): uniform walks + SGNS. */
final class DeepWalk(dim: Int = 32, walksPerNode: Int = 8, walkLen: Int = 10,
                     epochs: Int = 2) extends LinkPredictor {
  import DeepWalk._
  val name = "DeepWalk"
  def fit(data: LinkPredData): LinkScorer = {
    val rng = new Random(Seed)
    val walks = Walks.uniformWalks(data.trainGraph, walksPerNode, walkLen, rng)
    val pairs = Walks.toPairs(walks, Window)
    val emb = SkipGram.trainOnPairs(pairs, data.n, SkipGram.SgConfig(dim = dim, epochs = epochs, seed = Seed))
    EmbeddingScorer.calibrated(emb, data)
  }
}

object DeepWalk {
  private val Window = 3
  private val Seed = 61L
}

/** Node2Vec (Grover & Leskovec, KDD'16): (p,q)-biased walks + SGNS. */
final class Node2Vec(dim: Int = 32, walksPerNode: Int = 8, walkLen: Int = 10,
                     epochs: Int = 2) extends LinkPredictor {
  import Node2Vec._
  val name = "Node2Vec"
  def fit(data: LinkPredData): LinkScorer = {
    val rng = new Random(Seed)
    val walks = Walks.biasedWalks(data.trainGraph, walksPerNode, walkLen, P, Q, rng)
    val pairs = Walks.toPairs(walks, Window)
    val emb = SkipGram.trainOnPairs(pairs, data.n, SkipGram.SgConfig(dim = dim, epochs = epochs, seed = Seed))
    EmbeddingScorer.calibrated(emb, data)
  }
}

object Node2Vec {
  private val Window = 3

  /** Return (p) and in-out (q) parameters of the biased walk: p < 1 favours
    * stepping back, q > 1 keeps walks near their start.
    */
  private val P = 0.5
  private val Q = 2.0
  private val Seed = 67L
}
