package repro.storage

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test}
import repro.{Oracle, SparkSpec}
import java.nio.file.Files

class GraphStoreSpec extends SparkSpec {

  private def newPath(): String = Files.createTempDirectory("geabase").resolve("edges").toString
  private def newStore(): GraphStore = new GraphStore(spark, newPath())

  private def hops(df: org.apache.spark.sql.DataFrame): Map[Int, (Int, Double)] =
    df.collect().map(r => r.getInt(0) -> (r.getInt(1), r.getDouble(2))).toMap

  /** Brute-force BFS over the raw edge list (both directions, duplicates
    * kept): min hop, and max score product over shortest-hop paths.
    */
  private def bruteForce(edges: Seq[(Int, Int, Double)], seeds: Seq[Int], k: Int): Map[Int, (Int, Double)] = {
    val arcs = edges.flatMap { case (u, v, s) => Seq((u, v, s), (v, u, s)) }
    var best = seeds.map(_ -> (0, 1.0)).toMap
    (1 to k).foreach { h =>
      val reached = arcs.collect {
        case (u, v, s) if best.get(u).exists(_._1 == h - 1) && !best.contains(v) => v -> best(u)._2 * s
      }
      best ++= reached.groupBy(_._1).map { case (v, ps) => v -> (h, ps.map(_._2).reduce(_ max _)) }
    }
    best
  }

  private def edgesDf = {
    import spark.implicits._
    // path 0-1-2-3-4 plus shortcut 0-5, 5-3
    Seq((0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (3, 4, 0.6), (0, 5, 0.5), (5, 3, 0.4))
      .toDF("src", "dst", "score")
  }

  test("write/read round-trips the relations") {
    val store = newStore()
    store.write(edgesDf)
    val back = store.edges()
    assert(back.count() == 6)
    assert(back.columns.toSet == Set("src", "dst", "score"))
  }

  test("adjacency doubles every edge — Oracle-checked") {
    val store = newStore()
    store.write(edgesDf)
    val adj = SparkKHop.adjacency(store.edges()).groupBy("a").agg(count("*").as("deg"))
    Oracle.assertEquivalent(adj,
      """SELECT a, count(*) AS deg FROM (
        |  SELECT src AS a FROM e UNION ALL SELECT dst AS a FROM e
        |) GROUP BY a""".stripMargin,
      "e" -> edgesDf)
  }

  test("kHop depths match brute-force BFS") {
    val store = newStore()
    store.write(edgesDf)
    val res = store.kHop(Seq(0), 2).collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
    // BFS from 0: hop0={0}, hop1={1,5}, hop2={2,3}
    assert(res == Map(0 -> 0, 1 -> 1, 5 -> 1, 2 -> 2, 3 -> 2))
  }

  test("kHop with k=1 stops at direct neighbours") {
    val store = newStore()
    store.write(edgesDf)
    val res = store.kHop(Seq(2), 1).collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
    assert(res == Map(2 -> 0, 1 -> 1, 3 -> 1))
  }

  test("kHop from multiple seeds takes the min hop") {
    val store = newStore()
    store.write(edgesDf)
    val res = store.kHop(Seq(0, 4), 1).collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
    assert(res(0) == 0 && res(4) == 0 && res(1) == 1 && res(3) == 1 && res(5) == 1)
  }

  test("path_score is the product of edge scores along the found path") {
    val store = newStore()
    store.write(edgesDf)
    val res = store.kHop(Seq(0), 2).collect()
      .map(r => r.getInt(0) -> r.getDouble(2)).toMap
    assert(math.abs(res(1) - 0.9) < 1e-12)
    assert(math.abs(res(2) - 0.9 * 0.8) < 1e-12)
    // node 3 reachable via 0-5-3 (0.5*0.4=0.2) and via 0-1-2-3 (3 hops, out of k);
    // max path within 2 hops is 0.2
    assert(math.abs(res(3) - 0.2) < 1e-12)
  }

  test("weekly overwrite replaces the graph") {
    import spark.implicits._
    val store = newStore()
    store.write(edgesDf)
    store.write(Seq((7, 8, 1.0)).toDF("src", "dst", "score"))
    assert(store.edges().count() == 1)
  }

  test("a second write replaces the served graph") {
    import spark.implicits._
    val store = newStore()
    store.write(edgesDf)
    assert(hops(store.kHop(Seq(0), 2)).keySet == Set(0, 1, 5, 2, 3))
    store.write(Seq((0, 7, 0.5)).toDF("src", "dst", "score"))
    assert(hops(store.kHop(Seq(0), 2)) == Map(0 -> (0, 1.0), 7 -> (1, 0.5)))
  }

  test("a second store on the same path answers the writer's kHop") {
    val path = newPath()
    val writer = new GraphStore(spark, path)
    writer.write(edgesDf)
    val reader = new GraphStore(spark, path)
    for (seeds <- Seq(Seq(0), Seq(2, 4), Seq(9)); k <- 0 to 3)
      assert(hops(reader.kHop(seeds, k)) == hops(writer.kHop(seeds, k)), s"seeds $seeds, k $k")
  }

  test("kHop has the tuple encoder's schema and expand's rows in order") {
    import spark.implicits._
    val store = newStore()
    store.write(edgesDf)
    val want = Seq.empty[(Int, Int, Double)].toDF("entity_id", "hop", "path_score").schema
    for (seeds <- Seq(Seq(0), Seq(4, 2), Seq(3, 9, 0)); k <- 0 to 3) {
      val df = store.kHop(seeds, k)
      assert(df.schema == want, s"${df.schema.treeString} vs ${want.treeString}")
      assert(df.schema.forall(!_.nullable))
      val rows = df.collect().map(r => (r.getInt(0), r.getInt(1), r.getDouble(2)))
      assert(rows.toSeq == store.expand(seeds, k).toSeq, s"seeds $seeds, k $k")
    }
    assert(store.frame(Array.empty).schema == want && store.frame(Array.empty).isEmpty)
    // seeds outside the graph come back at hop 0, in id order with the seeds inside it
    val rows = store.kHop(Seq(12, 0, 7), 1).collect().map(r => (r.getInt(0), r.getInt(1), r.getDouble(2)))
    assert(rows.toSeq == Seq((0, 0, 1.0), (7, 0, 1.0), (12, 0, 1.0), (1, 1, 0.9), (5, 1, 0.5)))
  }

  test("kHop with k < 0 fails naming k") {
    val store = newStore()
    store.write(edgesDf)
    val e = intercept[IllegalArgumentException](store.kHop(Seq(0), -1))
    assert(e.getMessage.contains("k = -1"), e.getMessage)
  }

  test("a seed with no edges comes back alone at hop 0") {
    import spark.implicits._
    val store = newStore()
    store.write(Seq((0, 1, 0.9), (3, 4, 0.8)).toDF("src", "dst", "score"))
    // 2 lies inside the graph's id range but has no edges; 9 lies outside it
    Seq(2, 9).foreach(s => assert(hops(store.kHop(Seq(s), 3)) == Map(s -> (0, 1.0))))
  }

  test("write rejects relations the CSR cannot serve exactly") {
    import spark.implicits._
    val store = newStore()
    store.write(edgesDf)
    Seq(Seq((0L, 1L, 0.5)).toDF("src", "dst", "score"), Seq((0, 1, -0.5)).toDF("src", "dst", "score"),
      Seq((0, 1, Double.NaN)).toDF("src", "dst", "score"), Seq((-1, 1, 0.5)).toDF("src", "dst", "score"))
      .foreach(bad => intercept[IllegalArgumentException](store.write(bad)))
    assert(hops(store.kHop(Seq(0), 1)).keySet == Set(0, 1, 5), "a rejected write must leave the graph served")
  }

  test("CSR kHop = Spark kHop = brute-force BFS on random graphs") {
    val graphs = for {
      n <- Gen.choose(1, 10)
      m <- Gen.choose(0, 20)
      score = Gen.oneOf(Gen.choose(0.05, 1.0), Gen.oneOf(0.25, 0.5, 1.0))
      edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1), score))
      loops <- Gen.listOf(Gen.zip(Gen.choose(0, n - 1), score)).map(_.take(2).map { case (u, s) => (u, u, s) })
      // the same pair again, either way round, with another score
      dupes <- Gen.someOf(edges).flatMap(es => Gen.sequence[List[(Int, Int, Double)], (Int, Int, Double)](
        es.toList.map { case (u, v, _) => score.map(s => if (s < 0.5) (v, u, s) else (u, v, s)) }))
      // ids up to n + 2: isolated or absent from the graph
      seeds <- Gen.nonEmptyListOf(Gen.choose(0, n + 2)).map(_.take(3))
      k <- Gen.choose(0, 3)
    } yield (edges ++ loops ++ dupes, seeds, k)
    val prop = Prop.forAllNoShrink(graphs) { case (edges, seeds, k) =>
      import spark.implicits._
      val store = newStore()
      store.write(edges.toDF("src", "dst", "score"))
      val csr = hops(store.kHop(seeds, k))
      val oracle = hops(SparkKHop.kHop(spark, store.edges(), seeds, k))
      val brute = bruteForce(edges, seeds, k)
      def bits(m: Map[Int, (Int, Double)]) = m.map { case (e, (h, s)) => e -> (h, java.lang.Double.doubleToLongBits(s)) }
      Prop(bits(csr) == bits(oracle) && bits(csr) == bits(brute)) :|
        s"edges $edges, seeds $seeds, k $k: csr $csr, spark $oracle, brute force $brute"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(20).withInitialSeed(20230417L), prop)
    assert(res.passed, res.status)
  }
}
