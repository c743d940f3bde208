package repro.storage

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, IntegerType, StructField, StructType}
import repro.graph.EntityGraph
import scala.collection.mutable

/** Stand-in for Geabase, Ant's distributed graph database (paper §III-C).
  *
  * The online stage needs exactly two capabilities from the store: persist
  * the mined relations, and answer k-hop neighbourhood queries fast. The
  * edge DataFrame is persisted as Parquet on the local filesystem (the
  * durable copy); queries are answered by BFS over a weighted CSR
  * (`EntityGraph`) held on the driver, the resident copy a graph database
  * keeps in memory.
  *
  * `write` replaces the resident graph with the rows it persists. A store
  * opened on an existing path loads the graph from Parquet when it is first
  * queried and serves that snapshot from then on; writes through another
  * `GraphStore` on the same path are not seen.
  */
final class GraphStore(spark: SparkSession, path: String) {

  private var resident: EntityGraph = _

  /** Persists mined relations (src: int, dst: int, score: double), and makes
    * them the graph that `kHop` serves. Overwrites prior weeks — the paper's
    * graph is rebuilt weekly. Ids must be non-negative and scores finite and
    * non-negative (they are link probabilities; path scores multiply them).
    */
  def write(relations: DataFrame): Unit = {
    val rel = relations.select("src", "dst", "score")
    require(rel.schema.map(_.dataType) == Seq(IntegerType, IntegerType, DoubleType),
      s"relations must be (src int, dst int, score double), got ${rel.schema.simpleString}")
    val rows = rel.collect()
    val graph = GraphStore.csr(rows)
    spark.createDataFrame(java.util.Arrays.asList(rows: _*), rel.schema)
      .write.mode("overwrite").parquet(path)
    synchronized { resident = graph }
  }

  def edges(): DataFrame = spark.read.parquet(path)

  private def graph: EntityGraph = synchronized {
    if (resident == null)
      resident = GraphStore.csr(edges().select("src", "dst", "score").collect())
    resident
  }

  /** Entities reachable within `k` hops of the seed entities, with hop depth
    * and the best path score: the max, over shortest-hop paths, of the
    * product of edge scores along the path. Seeds themselves are returned
    * with hop 0 / score 1, also when they have no edges. This is the
    * entity-graph-reasoning primitive the marketer UI drives. Rows are
    * (entity_id, hop, path_score), by hop then entity id.
    */
  def expand(seeds: Seq[Int], k: Int): Array[(Int, Int, Double)] = {
    require(k >= 0, s"k must be >= 0, got k = $k")
    val g = graph
    val (inGraph, outside) = seeds.distinct.partition(s => s >= 0 && s < g.n)
    val hop = Array.fill(g.n)(-1)
    val score = new Array[Double](g.n)
    var frontier = inGraph.toArray
    frontier.foreach { s => hop(s) = 0; score(s) = 1.0 }
    var h = 1
    while (h <= k && frontier.nonEmpty) {
      val next = mutable.ArrayBuilder.make[Int]
      frontier.foreach { u =>
        var i = g.offsets(u)
        while (i < g.offsets(u + 1)) {
          val v = g.neighbors(i)
          val p = score(u) * g.scores(i)
          if (hop(v) < 0) { hop(v) = h; score(v) = p; next += v }
          else if (hop(v) == h && p > score(v)) score(v) = p
          i += 1
        }
      }
      frontier = next.result()
      h += 1
    }
    val reached = (0 until g.n).filter(hop(_) >= 0).map(e => (e, hop(e), score(e)))
    (outside.map(s => (s, 0, 1.0)) ++ reached).sortBy { case (e, d, _) => (d, e) }.toArray
  }

  /** `expand` as a DataFrame (entity_id, hop, path_score). */
  def kHop(seeds: Seq[Int], k: Int): DataFrame = frame(expand(seeds, k))

  /** Rows of `expand` as a DataFrame (entity_id, hop, path_score), in the
    * given order, all three columns non-nullable. It is a local relation built
    * from generic rows against one constant schema, so building it derives
    * no product encoder by reflection, and neither building nor reading it
    * runs a Spark job.
    */
  def frame(expansion: Array[(Int, Int, Double)]): DataFrame = {
    val rows = new java.util.ArrayList[Row](expansion.length)
    expansion.foreach { case (e, h, s) => rows.add(Row(e, h, s)) }
    spark.createDataFrame(rows, GraphStore.ExpansionSchema)
  }
}

object GraphStore {

  /** The schema of `kHop` / `frame`: the one a `(Int, Int, Double)` tuple
    * encoder gives, every column non-nullable.
    */
  private val ExpansionSchema: StructType = StructType(Seq(
    StructField("entity_id", IntegerType, nullable = false),
    StructField("hop", IntegerType, nullable = false),
    StructField("path_score", DoubleType, nullable = false)))

  /** The undirected weighted CSR over relation rows (src, dst, score); a
    * pair given more than once keeps its max score.
    */
  private def csr(rows: Array[Row]): EntityGraph = {
    val edges = rows.toSeq.map { r =>
      require(!r.anyNull && r.getInt(0) >= 0 && r.getInt(1) >= 0 && r.getDouble(2) >= 0 &&
        !r.getDouble(2).isInfinite, s"relation $r: ids must be >= 0, scores finite and >= 0")
      (r.getInt(0), r.getInt(1), r.getDouble(2))
    }
    val n = if (edges.isEmpty) 0 else edges.map { case (u, v, _) => math.max(u, v) }.max + 1
    EntityGraph.fromScoredEdges(edges.map { case (u, v, s) => (u, v, 0, s) }, n)
  }
}
