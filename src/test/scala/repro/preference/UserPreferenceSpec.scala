package repro.preference

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, DoubleType, IntegerType}
import repro.{Oracle, SparkJobs, SparkSpec}
import scala.util.Random

class UserPreferenceSpec extends SparkSpec {
  import UserPreferenceSpec._

  private lazy val emb = Array(
    Array(1.0, 0.0), Array(0.0, 1.0), Array(1.0, 1.0), Array(2.0, 0.0))

  private def flatSeq = {
    import spark.implicits._
    // user 0 saw entities 0,1,2; user 1 saw 3,3
    Seq((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 3), (1, 1, 3))
      .toDF("user_id", "rank", "entity_id")
  }

  test("embeddingsDf exposes (entity_id, vec)") {
    val df = UserPreference.embeddingsDf(spark, emb)
    assert(df.count() == 4)
    val r = df.filter(col("entity_id") === 2).head.getSeq[Double](1)
    assert(r == Seq(1.0, 1.0))
  }

  test("user embedding is the element-wise mean over the sequence (eq. 7)") {
    val ue = UserPreference.userEmbeddings(flatSeq, UserPreference.embeddingsDf(spark, emb))
    val m = ue.collect().map(r => r.getInt(0) -> r.getSeq[Double](1)).toMap
    assert(m(0) == Seq(2.0 / 3, 2.0 / 3))
    assert(m(1) == Seq(2.0, 0.0))
  }

  test("user embedding mean matches DuckDB per-dimension average") {
    val ue = UserPreference.userEmbeddings(flatSeq, UserPreference.embeddingsDf(spark, emb))
    val got = ue.select(col("user_id"),
      element_at(col("vec"), 1).as("d0"), element_at(col("vec"), 2).as("d1"))
    val embDf = {
      import spark.implicits._
      emb.zipWithIndex.toSeq.map { case (v, i) => (i, v(0), v(1)) }.toDF("entity_id", "e0", "e1")
    }
    Oracle.assertEquivalent(got,
      """SELECT s.user_id, avg(CAST(e.e0 AS DOUBLE)) AS d0, avg(CAST(e.e1 AS DOUBLE)) AS d1
        |FROM s JOIN e ON s.entity_id = e.entity_id GROUP BY s.user_id""".stripMargin,
      "s" -> flatSeq, "e" -> embDf)
  }

  test("unembedded entities are skipped; a user with none embedded gets no row; no input gives no rows") {
    import spark.implicits._
    // user 2 mixes entity 1 with the unembedded 9; user 3 sees only unembedded entities
    val flat = Seq((3, 0, 7), (2, 0, 9), (0, 1, 2), (2, 1, 1), (3, 1, 9), (0, 0, 0))
      .toDF("user_id", "rank", "entity_id")
    val embDf = UserPreference.embeddingsDf(spark, emb)
    val ue = UserPreference.userEmbeddings(flat, embDf)
    assert(ue.collect().map(r => r.getInt(0) -> r.getSeq[Double](1)).toSeq == Seq(0 -> Seq(1.0, 0.5), 2 -> Seq(0.0, 1.0)))
    val empty = UserPreference.userEmbeddings(flat.limit(0), embDf)
    assert(empty.collect().isEmpty)
    assert(empty.schema.map(f => (f.name, f.dataType)) ==
      Seq("user_id" -> IntegerType, "vec" -> ArrayType(DoubleType, containsNull = false)))
  }

  test("preference score is the dot product r_u · h_e (eq. 7)") {
    val embDf = UserPreference.embeddingsDf(spark, emb)
    val ue = UserPreference.userEmbeddings(flatSeq, embDf)
    val scores = UserPreference.preferenceScores(spark, ue, embDf, Seq(0, 2))
      .collect().map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    // user0 = (2/3, 2/3): score vs e0=(1,0) → 2/3; vs e2=(1,1) → 4/3
    assert(math.abs(scores((0, 0)) - 2.0 / 3) < 1e-12)
    assert(math.abs(scores((0, 2)) - 4.0 / 3) < 1e-12)
    // user1 = (2,0): vs e0 → 2; vs e2 → 2
    assert(math.abs(scores((1, 0)) - 2.0) < 1e-12)
    assert(math.abs(scores((1, 2)) - 2.0) < 1e-12)
  }

  test("preference scores cover the full user × chosen-entity cross product") {
    val embDf = UserPreference.embeddingsDf(spark, emb)
    val ue = UserPreference.userEmbeddings(flatSeq, embDf)
    val scores = UserPreference.preferenceScores(spark, ue, embDf, Seq(0, 1, 3))
    assert(scores.count() == 2 * 3)
  }

  test("resident decodes a frame instance once; a derived frame is decoded afresh") {
    val embDf = UserPreference.embeddingsDf(spark, emb)
    val m = UserPreference.resident(embDf)
    assert(UserPreference.resident(embDf) eq m)
    assert(m.ids.toSeq == Seq(0, 1, 2, 3) && m.dim == 2 && m(2).toSeq == Seq(1.0, 1.0))
    val derived = UserPreference.resident(embDf.filter(col("entity_id") =!= 2))
    assert(derived.ids.toSeq == Seq(0, 1, 3) && derived.get(2).isEmpty)
    val dupes = intercept[IllegalArgumentException](UserPreference.resident(embDf.union(embDf)))
    assert(dupes.getMessage.contains("0,1,2,3"), dupes.getMessage)
  }

  test("embeddingsDf and userEmbeddings frames come pre-decoded, bit-equal to a collect decode") {
    import spark.implicits._
    val rng = new Random(13)
    val embDf = UserPreference.embeddingsDf(spark, randomMatrix(rng, 30, 9))
    val flat = (0 until 20).flatMap(u => (0 until 1 + rng.nextInt(8)).map(r => (u, r, rng.nextInt(30))))
      .toDF("user_id", "rank", "entity_id")
    val ue = UserPreference.userEmbeddings(flat, embDf)
    def bits(m: UserPreference.EmbeddingMatrix) =
      (m.ids.toSeq, m.dim, m.vectors.map(_.map(java.lang.Double.doubleToRawLongBits).toSeq).toSeq)
    for ((df, name) <- Seq(embDf -> "embeddingsDf", ue -> "userEmbeddings")) {
      // `.cache()` returns the same instance; decoding it by collect would run the caching job
      val (pre, jobs) = SparkJobs.count(spark)(UserPreference.resident(df.cache()))
      assert(jobs == 0, s"$name: $jobs Spark jobs")
      assert(bits(pre) == bits(UserPreference.resident(df.select("*"))), name)
      df.unpersist()
    }
  }

  test("an embeddingsDf frame is a snapshot: mutating the input array changes neither its rows nor resident") {
    val input = Array(Array(1.0, 2.0), Array(3.0, 4.0))
    val df = UserPreference.embeddingsDf(spark, input)
    input(0)(0) = 99.0
    input(1) = Array(7.0, 7.0)
    val want = Seq(Seq(1.0, 2.0), Seq(3.0, 4.0))
    assert(UserPreference.resident(df).vectors.map(_.toSeq).toSeq == want)
    assert(df.collect().map(_.getSeq[Double](1)).toSeq == want)
  }

  private def randomMatrix(rng: Random, n: Int, dim: Int): Array[Array[Double]] =
    Array.fill(n, dim)(rng.nextGaussian())

  private def users(vectors: Array[Array[Double]]) =
    new UserPreference.EmbeddingMatrix(vectors.indices.map(_ * 3 + 1).toArray, vectors, vectors.head.length)

  test("topUsers equals the per-entity mean of dot products on random matrices") {
    val rng = new Random(7)
    for (trial <- 0 until 20) {
      val dim = 1 + rng.nextInt(96)
      val u = users(randomMatrix(rng, 1 + rng.nextInt(300), dim))
      val entities = randomMatrix(rng, 1 + rng.nextInt(30), dim).toSeq
      val k = 1 + rng.nextInt(u.ids.length + 5)
      val got = UserPreference.topUsers(u, entities, k)
      val want = perEntityTopUsers(u, entities, k)
      assert(got.map(_._1).toSeq == want.map(_._1).toSeq, s"trial $trial: id order")
      got.zip(want).foreach { case ((id, a), (_, b)) =>
        assert(math.abs(a - b) < 1e-12, s"trial $trial, user $id: $a vs $b")
      }
    }
  }

  test("topUsers with one selected entity is bit-identical to the per-entity loop") {
    val rng = new Random(8)
    val u = users(randomMatrix(rng, 200, 96))
    val e = randomMatrix(rng, 1, 96).toSeq
    val got = UserPreference.topUsers(u, e, 50)
    val want = perEntityTopUsers(u, e, 50)
    assert(got.map(_._1).toSeq == want.map(_._1).toSeq)
    assert(got.map(x => java.lang.Double.doubleToLongBits(x._2)).toSeq ==
      want.map(x => java.lang.Double.doubleToLongBits(x._2)).toSeq)
  }

  test("topUsers with k > #users exports every user once, best first") {
    val rng = new Random(9)
    val u = users(randomMatrix(rng, 40, 8))
    val got = UserPreference.topUsers(u, randomMatrix(rng, 5, 8).toSeq, 100)
    assert(got.map(_._1).sorted.toSeq == u.ids.toSeq)
    assert(got.sliding(2).forall(w => w.head._2 >= w.last._2))
    assert(UserPreference.topUsers(u, Seq.empty, 10).isEmpty && UserPreference.topUsers(u, Seq(u.vectors(0)), 0).isEmpty)
  }

  test("topUsers equals a full sort by (-score, id) then take(k), tied scores included") {
    val rng = new Random(11)
    for (trial <- 0 until 40) {
      val dim = 1 + rng.nextInt(12)
      // few distinct rows, repeated: many users tie exactly
      val distinct = Array.fill(1 + rng.nextInt(6), dim)(rng.nextInt(5) - 2.0)
      val u = users(Array.fill(1 + rng.nextInt(120))(distinct(rng.nextInt(distinct.length))))
      val entities = Array.fill(1 + rng.nextInt(4), dim)(rng.nextInt(3) - 1.0).toSeq
      val k = 1 + rng.nextInt(u.ids.length + 3)
      val mean = Array.tabulate(dim)(d => entities.map(_(d)).foldLeft(0.0)(_ + _) / entities.length)
      val want = u.ids.indices.map { i =>
        var dot = 0.0
        for (d <- 0 until dim) dot += u.vectors(i)(d) * mean(d)
        (u.ids(i), dot)
      }.sortBy { case (id, s) => (-s, id) }(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Int)).take(k)
      val got = UserPreference.topUsers(u, entities, k)
      assert(got.map(_._1).toSeq == want.map(_._1), s"trial $trial, k $k: id order")
      assert(got.map(x => java.lang.Double.doubleToLongBits(x._2)).toSeq ==
        want.map(x => java.lang.Double.doubleToLongBits(x._2)), s"trial $trial: scores")
    }
  }

  test("the broadcast typed-mean daily job = the collect_list job within 1e-12, no exchange on a user-partitioned input") {
    import spark.implicits._
    val rng = new Random(12)
    val nEntities = 40
    val emb = randomMatrix(rng, nEntities, 24)
    val rows = (0 until 50).flatMap { u =>
      (0 until 1 + rng.nextInt(30)).map(r => (u, r, rng.nextInt(nEntities)))
    }
    val embDf = UserPreference.embeddingsDf(spark, emb)
    def vectors(df: org.apache.spark.sql.DataFrame) =
      df.collect().map(r => r.getInt(0) -> r.getSeq[Double](1).toArray).toMap
    val byUser = rows.toDF("user_id", "rank", "entity_id").repartition(7, col("user_id")).cache()
    for (flat <- Seq(byUser, rows.toDF("user_id", "rank", "entity_id").repartition(3))) {
      val got = vectors(UserPreference.userEmbeddings(flat, embDf))
      val want = vectors(SparkUserEmbeddings.userEmbeddings(flat, embDf))
      assert(got.keySet == want.keySet && got.size == 50)
      got.foreach { case (u, v) =>
        assert(v.length == 24 && v.indices.forall(j => math.abs(v(j) - want(u)(j)) < 1e-12), s"user $u")
      }
    }
    byUser.count()
    val job = UserPreference.userEmbeddings(byUser, embDf)
    job.collect()
    val shuffles = PlanHelper.collect(job.queryExecution.executedPlan) {
      case e: org.apache.spark.sql.execution.exchange.ShuffleExchangeLike => e
    }
    assert(shuffles.isEmpty, job.queryExecution.executedPlan.toString)
    byUser.unpersist()
  }
}

object UserPreferenceSpec {

  /** Plan traversal through adaptive query stages. */
  private object PlanHelper extends org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper

  /** Eq. 7 as first implemented: for each user, the mean over the entities
    * of r_u · h_e, each dot product summed in dimension order; all users
    * ranked by descending score, then ascending id. The oracle for
    * `UserPreference.topUsers`.
    */
  def perEntityTopUsers(users: UserPreference.EmbeddingMatrix, entities: Seq[Array[Double]],
                        k: Int): Array[(Int, Double)] =
    users.ids.indices.map { i =>
      val u = users.vectors(i)
      var sum = 0.0
      entities.foreach { e =>
        var dot = 0.0
        var j = 0
        while (j < u.length) { dot += u(j) * e(j); j += 1 }
        sum += dot
      }
      (users.ids(i), sum / entities.length)
    }.sortBy { case (id, s) => (-s, id) }(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Int))
      .take(k).toArray
}
