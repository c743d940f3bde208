package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class TensorSpec extends AnyFunSuite {

  /** The reference product: the single-threaded ikj loop `mm` used to be. */
  private def ref(a: Tensor, b: Tensor): Tensor = {
    require(a.cols == b.rows)
    val out = new Array[Double](a.rows * b.cols)
    val oc = b.cols
    var i = 0
    while (i < a.rows) {
      var k = 0
      while (k < a.cols) {
        val x = a.data(i * a.cols + k)
        if (x != 0.0) {
          var j = 0
          while (j < oc) { out(i * oc + j) += x * b.data(k * oc + j); j += 1 }
        }
        k += 1
      }
      i += 1
    }
    new Tensor(a.rows, oc, out)
  }

  /** Gaussian entries with about a third of them exactly zero. */
  private def sparse(rows: Int, cols: Int, rng: Random): Tensor =
    new Tensor(rows, cols, Array.fill(rows * cols)(if (rng.nextInt(3) == 0) 0.0 else rng.nextGaussian()))

  /** mm, mmTN and mmNT of an n×k by k×m product equal the reference bit for bit. */
  private def checkKernels(n: Int, k: Int, m: Int, rng: Random): Unit = {
    val a = sparse(n, k, rng); val b = sparse(k, m, rng)
    val at = a.t; val bt = b.t
    val shape = s"${n}x$k * ${k}x$m"
    assert(java.util.Arrays.equals((a mm b).data, ref(a, b).data), s"mm $shape")
    val tn = at mmTN b
    assert(tn.rows == n && tn.cols == m && java.util.Arrays.equals(tn.data, ref(at.t, b).data), s"mmTN $shape")
    val nt = a mmNT bt
    assert(nt.rows == n && nt.cols == m && java.util.Arrays.equals(nt.data, ref(a, bt.t).data), s"mmNT $shape")
  }

  test("mm, mmTN and mmNT are bit-equal to the single-threaded reference") {
    val rng = new Random(17)
    val edges = Seq(
      (1, 1, 1), (1, 37, 1), (1, 9, 23), (23, 9, 1), (37, 1, 5), // 1×k, k×1, inner width 1
      (5, 3, 7), (6, 11, 2), (7, 300, 5), (13, 513, 6),        // rows not a multiple of 4; k past one block
      (64, 64, 63), (257, 33, 31), (1001, 37, 19), (3, 2000, 50), // both sides of the cutoff
      (4 * Tensor.threads + 3, 301, 257))                         // uneven split across the pool
    val cutoff = Tensor.ParallelCutoff
    assert(64L * 64 * 63 < cutoff && 257L * 33 * 31 > cutoff)
    edges.foreach { case (n, k, m) => checkKernels(n, k, m, rng) }
    (0 until 40).foreach { _ =>
      checkKernels(1 + rng.nextInt(300), 1 + rng.nextInt(70), 1 + rng.nextInt(40), rng)
    }
  }

  test("mmTN and mmNT shape mismatches throw") {
    intercept[IllegalArgumentException](Tensor.zeros(3, 2) mmTN Tensor.zeros(2, 2))
    intercept[IllegalArgumentException](Tensor.zeros(3, 2) mmNT Tensor.zeros(2, 3))
  }

  test("kernel pool threads are daemons") {
    val rng = new Random(5)
    val a = sparse(400, 100, rng)
    a mm sparse(100, 40, rng) // above the cutoff, so the pool has run
    val onPool = new java.util.concurrent.Callable[Boolean] { def call(): Boolean = Thread.currentThread.isDaemon }
    assert(Tensor.pool.submit(onPool).get())
    val poolThreads = Thread.getAllStackTraces.keySet.toArray(Array.empty[Thread]).filter(_.getName.startsWith("nn-mm-"))
    assert(poolThreads.nonEmpty && poolThreads.forall(_.isDaemon))
  }

  test("matmul against hand-computed 2x3 * 3x2") {
    val a = new Tensor(2, 3, Array(1, 2, 3, 4, 5, 6).map(_.toDouble))
    val b = new Tensor(3, 2, Array(7, 8, 9, 10, 11, 12).map(_.toDouble))
    val c = a mm b
    assert(c.rows == 2 && c.cols == 2)
    assert(c(0, 0) == 58.0 && c(0, 1) == 64.0 && c(1, 0) == 139.0 && c(1, 1) == 154.0)
  }

  test("matmul shape mismatch throws") {
    val a = Tensor.zeros(2, 3)
    intercept[IllegalArgumentException](a mm Tensor.zeros(2, 2))
  }

  test("transpose round-trips") {
    val rng = new Random(1)
    val a = Tensor.glorot(4, 7, rng)
    val tt = a.t.t
    assert(tt.rows == a.rows && tt.cols == a.cols)
    assert(tt.data.sameElements(a.data))
  }

  test("transpose swaps indices") {
    val a = new Tensor(2, 3, Array(1, 2, 3, 4, 5, 6).map(_.toDouble))
    val t = a.t
    assert(t(2, 1) == a(1, 2) && t(0, 1) == a(1, 0))
  }

  test("addRow broadcasts bias over rows") {
    val a = Tensor.zeros(3, 2)
    val b = Tensor.rowVec(Array(1.0, 2.0))
    val c = a.addRow(b)
    (0 until 3).foreach(r => assert(c(r, 0) == 1.0 && c(r, 1) == 2.0))
  }

  test("hadamard and scalar ops") {
    val a = new Tensor(1, 3, Array(1.0, 2.0, 3.0))
    val b = new Tensor(1, 3, Array(4.0, 5.0, 6.0))
    assert(a.hadamard(b).data.sameElements(Array(4.0, 10.0, 18.0)))
    assert((2.0 *: a).data.sameElements(Array(2.0, 4.0, 6.0)))
    assert((a - b).data.sameElements(Array(-3.0, -3.0, -3.0)))
  }

  test("sum, sumSquares, frobenius") {
    val a = new Tensor(2, 2, Array(1.0, -2.0, 3.0, -4.0))
    assert(a.sum == -2.0)
    assert(a.sumSquares == 30.0)
    assert(math.abs(a.frobenius - math.sqrt(30.0)) < 1e-12)
  }

  test("glorot is deterministic in seed and bounded") {
    val a = Tensor.glorot(5, 5, new Random(42))
    val b = Tensor.glorot(5, 5, new Random(42))
    assert(a.data.sameElements(b.data))
    val limit = math.sqrt(6.0 / 10)
    assert(a.data.forall(x => math.abs(x) <= limit))
  }

  test("fromRows and row round-trip") {
    val rows = Seq(Array(1.0, 2.0), Array(3.0, 4.0), Array(5.0, 6.0))
    val t = Tensor.fromRows(rows)
    assert(t.rows == 3 && t.cols == 2)
    assert(t.row(1).sameElements(Array(3.0, 4.0)))
  }

  test("in-place ops mutate as documented") {
    val a = Tensor.ones(2, 2)
    a.addInPlace(Tensor.ones(2, 2))
    assert(a.data.forall(_ == 2.0))
    a.scaleInPlace(0.5)
    assert(a.data.forall(_ == 1.0))
    a.zeroInPlace()
    assert(a.data.forall(_ == 0.0))
  }
}
