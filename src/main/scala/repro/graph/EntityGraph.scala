package repro.graph

import scala.util.Random

/** Driver-side CSR adjacency over the entity graph, built from edge lists
  * collected on the driver. Spark owns edge *construction* (joins, k-NN,
  * splits); the CSR is what the GNN trainers iterate over, and what neighbour
  * sampling and structural features (CN/AA/Jaccard) read.
  *
  * Edges are stored undirected (both directions present). `scores(i)` is the
  * weight of CSR entry i (1.0 for unweighted graphs); `storage.GraphStore`
  * serves k-hop queries from a weighted instance.
  */
final class EntityGraph(val n: Int, val offsets: Array[Int], val neighbors: Array[Int],
                        val relTypes: Array[Int], val scores: Array[Double]) extends Serializable {

  def degree(u: Int): Int = offsets(u + 1) - offsets(u)
  def numEdges: Int = neighbors.length / 2

  def neighborsOf(u: Int): Array[Int] =
    java.util.Arrays.copyOfRange(neighbors, offsets(u), offsets(u + 1))

  def neighborSet(u: Int): Set[Int] = neighborsOf(u).toSet

  def hasEdge(u: Int, v: Int): Boolean = {
    var i = offsets(u)
    while (i < offsets(u + 1)) { if (neighbors(i) == v) return true; i += 1 }
    false
  }

  /** Samples exactly `k` neighbours per node (with replacement; isolated nodes
    * fall back to self-loops). Returns a flat array of length n*k: the layout
    * the autodiff attention-pooling op expects.
    */
  def sampleNeighbors(k: Int, rng: Random): Array[Int] = {
    val out = new Array[Int](n * k)
    var u = 0
    while (u < n) {
      val d = degree(u)
      var j = 0
      while (j < k) {
        out(u * k + j) = if (d == 0) u else neighbors(offsets(u) + rng.nextInt(d))
        j += 1
      }
      u += 1
    }
    out
  }

  /** Per-relation neighbour pools, in CSR order, built once per graph. */
  @transient private lazy val poolsByType: Map[Int, Array[Array[Int]]] =
    relTypes.distinct.map { t =>
      t -> Array.tabulate(n) { u =>
        (offsets(u) until offsets(u + 1)).filter(i => relTypes(i) == t).map(neighbors).toArray
      }
    }.toMap

  /** Same, restricted to one relation type (for CompGCN). */
  def sampleNeighborsOfType(k: Int, relType: Int, rng: Random): Array[Int] = {
    val byType = poolsByType.getOrElse(relType, Array.fill(n)(Array.emptyIntArray))
    val out = new Array[Int](n * k)
    var u = 0
    while (u < n) {
      val pool = byType(u)
      var j = 0
      while (j < k) {
        out(u * k + j) = if (pool.isEmpty) u else pool(rng.nextInt(pool.length))
        j += 1
      }
      u += 1
    }
    out
  }

  /** Each CSR row sorted ascending, built once per graph: membership and
    * intersection queries for the structural features run on it by binary
    * search or a merge. CSR rows never repeat a neighbour.
    */
  @transient private lazy val sortedNeighbors: Array[Int] = {
    val out = neighbors.clone()
    var u = 0
    while (u < n) { java.util.Arrays.sort(out, offsets(u), offsets(u + 1)); u += 1 }
    out
  }

  private def isNeighbor(u: Int, w: Int): Boolean =
    java.util.Arrays.binarySearch(sortedNeighbors, offsets(u), offsets(u + 1), w) >= 0

  def commonNeighbors(u: Int, v: Int): Int = {
    val s = sortedNeighbors
    var i = offsets(u); var j = offsets(v); var inter = 0
    while (i < offsets(u + 1) && j < offsets(v + 1)) {
      if (s(i) < s(j)) i += 1
      else if (s(i) > s(j)) j += 1
      else { inter += 1; i += 1; j += 1 }
    }
    inter
  }

  /** Σ 1 / log(deg w + e) over the common neighbours w, summed in the CSR
    * order of `v`'s row.
    */
  def adamicAdar(u: Int, v: Int): Double = {
    var sum = 0.0
    var i = offsets(v)
    while (i < offsets(v + 1)) {
      val w = neighbors(i)
      if (isNeighbor(u, w)) sum += 1.0 / math.log(degree(w) + math.E)
      i += 1
    }
    sum
  }

  def jaccard(u: Int, v: Int): Double = {
    val inter = commonNeighbors(u, v)
    val union = degree(u) + degree(v) - inter
    if (union == 0) 0.0 else inter.toDouble / union
  }
}

object EntityGraph {

  /** Builds the CSR from undirected (src, dst, rel_type) edges. Each input
    * edge is materialised in both directions; duplicates are kept once.
    */
  def fromEdges(edgeList: Seq[(Int, Int, Int)], n: Int): EntityGraph =
    fromScoredEdges(edgeList.map { case (u, v, t) => (u, v, t, 1.0) }, n)

  /** Same, with a score per edge (src, dst, rel_type, score). A pair given
    * more than once keeps its min rel type and its max score.
    */
  def fromScoredEdges(edgeList: Seq[(Int, Int, Int, Double)], n: Int): EntityGraph = {
    val dedup = edgeList.flatMap { case (u, v, t, s) => Seq(((u, v), (t, s)), ((v, u), (t, s))) }
      .groupBy(_._1).map { case ((u, v), ts) =>
        (u, v, ts.map(_._2._1).min, ts.map(_._2._2).reduce(_ max _))
      }.toArray
    val deg = new Array[Int](n)
    dedup.foreach { case (u, _, _, _) => deg(u) += 1 }
    val offsets = deg.scanLeft(0)(_ + _)
    val cursor = offsets.clone()
    val neighbors = new Array[Int](dedup.length)
    val relTypes = new Array[Int](dedup.length)
    val scores = new Array[Double](dedup.length)
    dedup.foreach { case (u, v, t, s) =>
      neighbors(cursor(u)) = v
      relTypes(cursor(u)) = t
      scores(cursor(u)) = s
      cursor(u) += 1
    }
    new EntityGraph(n, offsets, neighbors, relTypes, scores)
  }
}
