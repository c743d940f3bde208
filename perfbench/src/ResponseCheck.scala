package perfbench

import scala.collection.mutable

/** One targeting response in plain values: resolved seed ids, the k-hop
  * expansion (entity, hop, path score) and the exported users (user, score).
  */
final case class Response(seedIds: Seq[Int], expanded: Array[(Int, Int, Double)],
                          users: Array[(Int, Double)])

/** Brute-force oracle for `Targeting.target` responses. */
object ResponseCheck {

  /** BFS over the published undirected edges: every entity within `k` hops of
    * the seeds with its hop and the max score product over shortest-hop paths.
    */
  def expand(edges: Array[(Int, Int, Double)], seeds: Seq[Int], k: Int): Map[Int, (Int, Double)] = {
    val adj = mutable.Map[Int, mutable.ArrayBuffer[(Int, Double)]]()
    edges.foreach { case (u, v, s) =>
      adj.getOrElseUpdate(u, mutable.ArrayBuffer()) += ((v, s))
      adj.getOrElseUpdate(v, mutable.ArrayBuffer()) += ((u, s))
    }
    val visited = mutable.Map[Int, (Int, Double)]()
    var frontier = seeds.distinct.map(e => e -> 1.0).toMap
    frontier.keys.foreach(e => visited(e) = (0, 1.0))
    var hop = 1
    while (hop <= k && frontier.nonEmpty) {
      val next = mutable.Map[Int, Double]()
      for ((u, ps) <- frontier; (v, s) <- adj.getOrElse(u, Nil) if !visited.contains(v))
        next(v) = math.max(next.getOrElse(v, Double.NegativeInfinity), ps * s)
      next.foreach { case (v, ps) => visited(v) = (hop, ps) }
      frontier = next.toMap
      hop += 1
    }
    visited.toMap
  }

  /** Everything wrong with `r`; empty when the response is correct. */
  def problems(r: Response, expectedSeeds: Seq[Int], expected: Map[Int, (Int, Double)],
               topK: Int, nUsers: Long): Seq[String] = {
    val out = mutable.ArrayBuffer[String]()
    if (r.seedIds != expectedSeeds) out += s"seed ids ${r.seedIds} != $expectedSeeds"
    val got = r.expanded.groupBy(_._1)
    if (got.exists(_._2.length > 1)) out += "expansion repeats an entity"
    val missing = expected.keySet -- got.keySet
    val extra = got.keySet -- expected.keySet
    if (missing.nonEmpty) out += s"expansion misses ${missing.size} entities, e.g. ${missing.take(3)}"
    if (extra.nonEmpty) out += s"expansion has ${extra.size} unreachable entities, e.g. ${extra.take(3)}"
    for ((e, (hop, score)) <- expected; rows <- got.get(e)) {
      val (_, h, s) = rows.head
      if (h != hop) out += s"entity $e hop $h != $hop"
      if (math.abs(s - score) > 1e-9) out += s"entity $e path score $s != $score"
    }
    val ids = r.users.map(_._1)
    if (ids.distinct.length != ids.length) out += "exported users repeat"
    if (r.users.sliding(2).exists { case Array(a, b) => a._2 < b._2; case _ => false })
      out += "exported users are not sorted by descending score"
    val want = math.min(topK.toLong, nUsers)
    if (r.users.length != want) out += s"exported ${r.users.length} users, want $want"
    out.toSeq
  }

  /** Corruptions the checker must reject, each derived from a correct response. */
  def corruptions(r: Response): Seq[(String, Response)] = {
    val wrongHop = r.expanded.indexWhere(_._2 > 0) match {
      case -1 => r.copy(expanded = r.expanded.map { case (e, h, s) => (e, h + 1, s) })
      case i  => r.copy(expanded = r.expanded.updated(i, { val (e, h, s) = r.expanded(i); (e, h + 1, s) }))
    }
    val seed = r.seedIds.head
    val droppedSeed = r.copy(expanded = r.expanded.filterNot(_._1 == seed))
    val unsorted = r.copy(users = r.users.reverse)
    Seq("wrong hop" -> wrongHop, "dropped seed" -> droppedSeed, "unsorted users" -> unsorted)
  }
}
