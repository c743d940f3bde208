package repro.preference

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, DoubleType, IntegerType, StructField, StructType}
import repro.ner.EntitySequenceExtractor

/** User entity preference (paper §III-C, eq. 7): the user embedding is the
  * element-wise mean of the fused entity embeddings h_e over the user's
  * entity sequence, and the preference score is its dot product with h_e.
  *
  * The daily user-embedding job (`userEmbeddings`) runs on the driver, from
  * the sequence rows and the entity matrix the driver already holds; the
  * tests check it against a Spark `collect_list` job and DuckDB SQL. Online
  * requests score against driver-resident copies of the embedding frames
  * (`resident`, `topUsers`); `preferenceScores` is the Spark form of the same
  * scores.
  */
object UserPreference {

  /** An embedding frame (id, vec array<double>) decoded on the driver: `ids`
    * ascending and distinct, `vectors(i)` the vector of `ids(i)`, all `dim` wide.
    */
  final class EmbeddingMatrix(val ids: Array[Int], val vectors: Array[Array[Double]], val dim: Int) {
    def get(id: Int): Option[Array[Double]] = {
      val i = java.util.Arrays.binarySearch(ids, id)
      if (i >= 0) Some(vectors(i)) else None
    }
    def apply(id: Int): Array[Double] =
      get(id).getOrElse(throw new NoSuchElementException(s"no embedding row for id $id"))
  }

  /** Decoded frames by instance. `Dataset` keeps `Object`'s identity
    * `equals`/`hashCode`, so this is a weak identity map: an entry lives as
    * long as its frame is reachable.
    */
  private val decoded = java.util.Collections.synchronizedMap(
    new java.util.WeakHashMap[DataFrame, EmbeddingMatrix]())

  /** The rows of an embedding frame (id, vec) as a driver-side matrix,
    * collected on the first call for that frame instance and kept for as
    * long as the instance is reachable. A frame is taken as a snapshot, the
    * contract `.cache()` has: later calls serve the first decode even if the
    * data under the frame has changed. A derived frame (`filter`,
    * `repartition`, …) is a new instance and is decoded afresh.
    *
    * Frames built by `embeddingsDf` and `userEmbeddings` come pre-decoded:
    * those calls register the matrix they built (of copied arrays), so
    * `resident` on them, or on the instance `.cache()` returns, collects
    * nothing.
    */
  def resident(frame: DataFrame): EmbeddingMatrix = decoded.computeIfAbsent(frame, decode _)

  private def decode(frame: DataFrame): EmbeddingMatrix = {
    val rows = frame.collect().map(r => (r.getInt(0), r.getSeq[Double](1).toArray)).sortBy(_._1)
    matrix(rows.map(_._1), rows.map(_._2))
  }

  /** A matrix of rows sorted by id; rejects repeated ids and mixed widths. */
  private def matrix(ids: Array[Int], vectors: Array[Array[Double]]): EmbeddingMatrix = {
    val dupes = ids.groupBy(identity).collect { case (id, xs) if xs.length > 1 => id }
    require(dupes.isEmpty, s"embedding frame repeats ids ${dupes.toSeq.sorted.mkString(",")}")
    val dim = vectors.headOption.fold(0)(_.length)
    require(vectors.forall(_.length == dim), s"embedding frame mixes vector widths")
    new EmbeddingMatrix(ids, vectors, dim)
  }

  /** `frame` with `m` as its decode: `resident(frame)` serves `m`. */
  private def preDecoded(frame: DataFrame, m: EmbeddingMatrix): DataFrame = {
    decoded.put(frame, m)
    frame
  }

  /** Users by preference, best first: highest mean of r_u · h_e over
    * `entities` (eq. 7), ties by ascending user id; the first `k`. The mean is
    * linear, so it is computed as one dot product r_u · ē per user, where ē
    * is the mean entity vector (summed in `entities` order, then divided by
    * their count). That equals the mean of the per-entity dot products up to
    * rounding: within 1e-12 for unit-scale vectors of up to 96 dimensions and
    * 30 entities, and bit-identical for one entity. One pass over the user
    * matrix with a size-`k` heap. Empty when `k <= 0` or `entities` is empty.
    */
  def topUsers(users: EmbeddingMatrix, entities: Seq[Array[Double]], k: Int): Array[(Int, Double)] = {
    if (k <= 0 || entities.isEmpty || users.ids.isEmpty) return Array.empty
    require(entities.forall(_.length == users.dim),
      s"entity vectors must be ${users.dim} wide, as the user vectors are")
    val mean = new Array[Double](users.dim)
    entities.foreach { e =>
      var d = 0
      while (d < mean.length) { mean(d) += e(d); d += 1 }
    }
    for (d <- mean.indices) mean(d) /= entities.length
    val heap = new TopK(math.min(k, users.ids.length))
    var i = 0
    while (i < users.ids.length) {
      val u = users.vectors(i)
      var dot = 0.0
      var j = 0
      while (j < u.length) { dot += u(j) * mean(j); j += 1 }
      heap.offer(users.ids(i), dot)
      i += 1
    }
    heap.bestFirst()
  }

  /** The best `capacity` (id, score) offers by (-score, id): a binary heap
    * over primitive arrays with the worst kept entry at the root.
    */
  private final class TopK(capacity: Int) {
    private val ids = new Array[Int](capacity)
    private val scores = new Array[Double](capacity)
    private var size = 0

    /** (ia, sa) ranks before (ib, sb): higher score, then lower id. */
    private def before(ia: Int, sa: Double, ib: Int, sb: Double): Boolean = {
      val c = java.lang.Double.compare(sb, sa)
      c < 0 || (c == 0 && ia < ib)
    }

    def offer(id: Int, score: Double): Unit =
      if (size < capacity) {
        var c = size
        size += 1
        while (c > 0 && before(ids((c - 1) / 2), scores((c - 1) / 2), id, score)) {
          val p = (c - 1) / 2
          ids(c) = ids(p); scores(c) = scores(p); c = p
        }
        ids(c) = id; scores(c) = score
      } else if (capacity > 0 && before(id, score, ids(0), scores(0))) siftDown(id, score, size)

    /** Places (id, score) at the root of the first `n` slots and restores the heap. */
    private def siftDown(id: Int, score: Double, n: Int): Unit = {
      var p = 0
      var done = false
      while (!done) {
        val l = 2 * p + 1
        if (l >= n) done = true
        else {
          val r = l + 1
          val w = if (r < n && before(ids(l), scores(l), ids(r), scores(r))) r else l
          if (before(ids(w), scores(w), id, score)) done = true
          else { ids(p) = ids(w); scores(p) = scores(w); p = w }
        }
      }
      ids(p) = id; scores(p) = score
    }

    /** The kept offers, best first; empties the heap. */
    def bestFirst(): Array[(Int, Double)] = {
      val out = new Array[(Int, Double)](size)
      while (size > 0) {
        size -= 1
        out(size) = (ids(0), scores(0))
        siftDown(ids(size), scores(size), size)
      }
      out
    }
  }

  /** Entity embeddings as a DataFrame (entity_id, vec array<double>), row i
    * holding `emb(i)`, pre-decoded for `resident` from a copy of `emb`. The
    * rows must all have one width.
    */
  def embeddingsDf(spark: SparkSession, emb: Array[Array[Double]]): DataFrame = {
    import spark.implicits._
    val snapshot = matrix(Array.range(0, emb.length), emb.map(_.clone()))
    preDecoded(emb.zipWithIndex.toSeq.map { case (v, i) => (i, v.toSeq) }.toDF("entity_id", "vec"), snapshot)
  }

  private val UserSchema = StructType(Seq(
    StructField("user_id", IntegerType, nullable = false),
    StructField("vec", ArrayType(DoubleType, containsNull = false), nullable = false)))

  /** r_u = Σ_j h_{e_j} / l over the user's entity sequence.
    * Input: flattened sequences (user_id, rank, entity_id) with distinct ranks
    * per user, and entity embeddings (entity_id, vec).
    * Output: a local relation (user_id, vec array<double>) by ascending
    * user_id.
    *
    * The sequences are collected in (user, rank) order
    * (`EntitySequenceExtractor.sortedRows`) and the vectors are looked up in
    * the driver-resident entity matrix (`resident`); each user's vectors are
    * summed in rank order and divided by their count. As in an inner join,
    * an entity with no embedding row is skipped, and a user with no sequence
    * rows, or only unembedded entities, gets no row, so `Targeting.target`
    * never exports that user. An empty `flatSeq` gives an empty frame with
    * the output schema. The frame comes pre-decoded for `resident`.
    */
  def userEmbeddings(flatSeq: DataFrame, embeddings: DataFrame): DataFrame = {
    val entities = resident(embeddings)
    val byUser = EntitySequenceExtractor.sortedRows(flatSeq)
      .flatMap { case (user, _, e) => entities.get(e).map(user -> _) }
      .groupBy(_._1)
    val users = byUser.keys.toArray.sorted
    val means = users.map { user =>
      val vectors = byUser(user)
      val sum = new Array[Double](entities.dim)
      vectors.foreach { case (_, v) =>
        var d = 0
        while (d < sum.length) { sum(d) += v(d); d += 1 }
      }
      sum.map(_ / vectors.length)
    }
    val rows = users.indices.map(i => Row(users(i), means(i)))
    preDecoded(flatSeq.sparkSession.createDataFrame(java.util.Arrays.asList(rows: _*), UserSchema),
      matrix(users, means))
  }

  /** s_<u,e> = r_u · h_e for every (user, entity in `entityIds`) pair.
    * Output: (user_id, entity_id, score).
    */
  def preferenceScores(spark: SparkSession, userEmb: DataFrame,
                       embeddings: DataFrame, entityIds: Seq[Int]): DataFrame = {
    import spark.implicits._
    val chosen = entityIds.toDF("entity_id").join(embeddings, "entity_id")
      .select(col("entity_id"), col("vec").as("evec"))
    userEmb.crossJoin(chosen)
      .select(col("user_id"), col("entity_id"),
        expr("aggregate(zip_with(vec, evec, (x, y) -> x * y), 0D, (acc, x) -> acc + x)").as("score"))
  }
}
