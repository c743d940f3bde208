package repro.nn

import java.util.concurrent.{Callable, ExecutorService, Executors, ThreadFactory}
import java.util.concurrent.atomic.AtomicInteger

/** Minimal dense row-major matrix used by the from-scratch autodiff engine.
  *
  * All model math in this repo (GeniePath, VGAE, CompGCN, PaGNN, ALPC heads,
  * the ensemble attention encoder) runs on these. Sizes are small (tens of
  * thousands of rows, dims ≤ 324), so the matrix products are plain JVM loops:
  * a row-blocked kernel that keeps 4×4 output tiles in registers over each
  * block of the inner dimension. Products above a fixed multiply-add cutoff
  * are split by row blocks across one fixed pool of daemon threads sized by
  * `Runtime.availableProcessors`; below it the calling thread does the work.
  *
  * Summation order is part of the contract: `mm`, `mmTN` and `mmNT` give every
  * output element the sum of its `k` terms `a(i,k)·b(k,j)` taken in ascending
  * `k`, starting from +0, and each element is computed by exactly one thread.
  * For finite inputs the result is therefore bit-identical to the plain
  * single-threaded ikj loop (which skips zero `a(i,k)`: a finite `0·b` is ±0
  * and leaves a sum started from +0 unchanged), whatever the blocking or the
  * thread count.
  *
  * Mutating ops are suffixed `InPlace` and only used by the autodiff tape and
  * the optimizer; everything else is out-of-place.
  */
final class Tensor(val rows: Int, val cols: Int, val data: Array[Double]) {
  require(data.length == rows * cols, s"bad shape ${rows}x$cols for ${data.length} values")

  def apply(r: Int, c: Int): Double = data(r * cols + c)
  def update(r: Int, c: Int, v: Double): Unit = data(r * cols + c) = v

  def copy(): Tensor = new Tensor(rows, cols, data.clone())

  /** Matrix product `this * other`. */
  def mm(other: Tensor): Tensor = {
    require(cols == other.rows, s"mm shape mismatch ${rows}x$cols * ${other.rows}x${other.cols}")
    val out = new Array[Double](rows * other.cols)
    Tensor.product(data, cols, 1, other.data, cols, other.cols, out, rows)
    new Tensor(rows, other.cols, out)
  }

  /** `this.t mm other` without building the transpose of `this`. The kernel's
    * row blocks run over the narrower output dimension, since each block
    * streams the other operand once; when that is `other`'s columns the kernel
    * fills the transposed output and transposes that small result once.
    */
  def mmTN(other: Tensor): Tensor = {
    require(rows == other.rows, s"mmTN shape mismatch (${rows}x$cols)^T * ${other.rows}x${other.cols}")
    val (n, m) = (cols, other.cols)
    val out = new Array[Double](n * m)
    if (n <= m) {
      Tensor.product(data, 1, n, other.data, rows, m, out, n)
      new Tensor(n, m, out)
    } else {
      Tensor.product(other.data, 1, m, data, rows, n, out, m)
      new Tensor(m, n, out).t
    }
  }

  /** `this mm other.t`; only `other` is transposed. */
  def mmNT(other: Tensor): Tensor = {
    require(cols == other.cols, s"mmNT shape mismatch ${rows}x$cols * (${other.rows}x${other.cols})^T")
    mm(other.t)
  }

  def t: Tensor = {
    val out = new Array[Double](rows * cols)
    var r = 0
    while (r < rows) { var c = 0; while (c < cols) { out(c * rows + r) = data(r * cols + c); c += 1 }; r += 1 }
    new Tensor(cols, rows, out)
  }

  def map(f: Double => Double): Tensor = {
    val out = new Array[Double](data.length)
    var i = 0; while (i < data.length) { out(i) = f(data(i)); i += 1 }
    new Tensor(rows, cols, out)
  }

  // the arithmetic ops are plain loops: through a closure every element
  // would pay a megamorphic call
  def +(o: Tensor): Tensor = {
    require(rows == o.rows && cols == o.cols, "+ shape mismatch")
    val out = new Array[Double](data.length)
    var i = 0; while (i < data.length) { out(i) = data(i) + o.data(i); i += 1 }
    new Tensor(rows, cols, out)
  }

  def -(o: Tensor): Tensor = {
    require(rows == o.rows && cols == o.cols, "- shape mismatch")
    val out = new Array[Double](data.length)
    var i = 0; while (i < data.length) { out(i) = data(i) - o.data(i); i += 1 }
    new Tensor(rows, cols, out)
  }

  def *:(s: Double): Tensor = {
    val out = new Array[Double](data.length)
    var i = 0; while (i < data.length) { out(i) = data(i) * s; i += 1 }
    new Tensor(rows, cols, out)
  }

  def hadamard(o: Tensor): Tensor = {
    require(rows == o.rows && cols == o.cols, "hadamard shape mismatch")
    val out = new Array[Double](data.length)
    var i = 0; while (i < data.length) { out(i) = data(i) * o.data(i); i += 1 }
    new Tensor(rows, cols, out)
  }

  /** Adds a 1×cols row vector to every row. */
  def addRow(bias: Tensor): Tensor = {
    require(bias.rows == 1 && bias.cols == cols, "addRow shape mismatch")
    val out = new Array[Double](data.length)
    var r = 0
    while (r < rows) {
      var c = 0
      while (c < cols) { out(r * cols + c) = data(r * cols + c) + bias.data(c); c += 1 }
      r += 1
    }
    new Tensor(rows, cols, out)
  }

  def addInPlace(o: Tensor): Unit = {
    require(rows == o.rows && cols == o.cols, s"addInPlace mismatch ${rows}x$cols vs ${o.rows}x${o.cols}")
    var i = 0; while (i < data.length) { data(i) += o.data(i); i += 1 }
  }

  def scaleInPlace(s: Double): Unit = { var i = 0; while (i < data.length) { data(i) *= s; i += 1 } }
  def zeroInPlace(): Unit = java.util.Arrays.fill(data, 0.0)

  def sum: Double = { var s = 0.0; var i = 0; while (i < data.length) { s += data(i); i += 1 }; s }
  def sumSquares: Double = { var s = 0.0; var i = 0; while (i < data.length) { s += data(i) * data(i); i += 1 }; s }

  def row(r: Int): Array[Double] = java.util.Arrays.copyOfRange(data, r * cols, (r + 1) * cols)

  def frobenius: Double = math.sqrt(sumSquares)

  override def toString: String =
    s"Tensor(${rows}x$cols)[${data.take(6).map(d => f"$d%.4f").mkString(",")}${if (data.length > 6) ",…" else ""}]"
}

object Tensor {
  def zeros(rows: Int, cols: Int): Tensor = new Tensor(rows, cols, new Array[Double](rows * cols))
  def ones(rows: Int, cols: Int): Tensor = fill(rows, cols, 1.0)
  def fill(rows: Int, cols: Int, v: Double): Tensor = {
    val a = new Array[Double](rows * cols); java.util.Arrays.fill(a, v); new Tensor(rows, cols, a)
  }

  /** Xavier/Glorot uniform init, deterministic in the seed. */
  def glorot(rows: Int, cols: Int, rng: scala.util.Random): Tensor = {
    val limit = math.sqrt(6.0 / (rows + cols))
    val a = new Array[Double](rows * cols)
    var i = 0; while (i < a.length) { a(i) = (rng.nextDouble() * 2 - 1) * limit; i += 1 }
    new Tensor(rows, cols, a)
  }

  def fromRows(rows: Seq[Array[Double]]): Tensor = {
    require(rows.nonEmpty, "fromRows: empty")
    val cols = rows.head.length
    val out = new Array[Double](rows.length * cols)
    var r = 0
    rows.foreach { arr =>
      require(arr.length == cols, s"fromRows: row $r has ${arr.length} values, row 0 has $cols")
      System.arraycopy(arr, 0, out, r * cols, cols)
      r += 1
    }
    new Tensor(rows.length, cols, out)
  }

  def rowVec(values: Array[Double]): Tensor = new Tensor(1, values.length, values.clone())

  /** Products with fewer multiply-adds than this run on the calling thread. */
  private[nn] val ParallelCutoff: Long = 1L << 18

  private[nn] val threads: Int = Runtime.getRuntime.availableProcessors

  /** The kernel pool. Daemon threads, so an idle pool never keeps a JVM alive. */
  private[nn] lazy val pool: ExecutorService = Executors.newFixedThreadPool(threads, new ThreadFactory {
    private val count = new AtomicInteger
    def newThread(r: Runnable): Thread = {
      val t = new Thread(r, s"nn-mm-${count.incrementAndGet()}")
      t.setDaemon(true)
      t
    }
  })

  /** `out(r*oc + c) = Σ_k l(r*lr + k*lk) · rm(k*oc + c)` for all `outRows`
    * rows, with `k` ascending from +0 in every element. `l` is addressed by
    * row and `k` strides, so a transposed left operand needs no copy; `rm` is
    * row-major `kDim × oc`. Row ranges go to the pool in blocks of four rows.
    */
  private def product(l: Array[Double], lr: Int, lk: Int, rm: Array[Double], kDim: Int, oc: Int,
                      out: Array[Double], outRows: Int): Unit = {
    val work = outRows.toLong * kDim * oc
    val blocks = (outRows + 3) / 4
    val tasks = if (work < ParallelCutoff) 1 else math.min(threads, blocks)
    if (tasks <= 1) rowRange(l, lr, lk, rm, kDim, oc, out, 0, outRows)
    else {
      def start(t: Int): Int = math.min(outRows, (blocks.toLong * t / tasks).toInt * 4)
      def range(t: Int): (Int, Int) = (start(t), start(t + 1))
      val futures = (1 until tasks).map { t =>
        val (r0, r1) = range(t)
        pool.submit(new Callable[Unit] { def call(): Unit = rowRange(l, lr, lk, rm, kDim, oc, out, r0, r1) })
      }
      val (r0, r1) = range(0)
      rowRange(l, lr, lk, rm, kDim, oc, out, r0, r1)
      futures.foreach(_.get())
    }
  }

  /** Inner-dimension block: a tile's running sums go back to `out` after
    * this many `k`, so the strided reads of one block stay in cache.
    */
  private val KBlock = 256

  /** Rows `[r0, r1)` of `product`, in 4×4 register tiles (4×1 at the right
    * edge, whole rows below the last full block of four). Tiles do not skip
    * zero terms: a finite `0·b` adds ±0, which leaves a running sum that
    * started from +0 unchanged.
    */
  private def rowRange(l: Array[Double], lr: Int, lk: Int, rm: Array[Double], kDim: Int, oc: Int,
                       out: Array[Double], r0: Int, r1: Int): Unit = {
    var k0 = 0
    while (k0 < kDim) {
      val k1 = math.min(kDim, k0 + KBlock)
      var r = r0
      while (r + 4 <= r1) {
        var c = 0
        while (c + 4 <= oc) {
          val o0 = r * oc + c; val o1 = o0 + oc; val o2 = o1 + oc; val o3 = o2 + oc
          var c00 = out(o0); var c01 = out(o0 + 1); var c02 = out(o0 + 2); var c03 = out(o0 + 3)
          var c10 = out(o1); var c11 = out(o1 + 1); var c12 = out(o1 + 2); var c13 = out(o1 + 3)
          var c20 = out(o2); var c21 = out(o2 + 1); var c22 = out(o2 + 2); var c23 = out(o2 + 3)
          var c30 = out(o3); var c31 = out(o3 + 1); var c32 = out(o3 + 2); var c33 = out(o3 + 3)
          var la = r * lr + k0 * lk
          var rb = k0 * oc + c
          var k = k0
          while (k < k1) {
            val a0 = l(la); val a1 = l(la + lr); val a2 = l(la + 2 * lr); val a3 = l(la + 3 * lr)
            val b0 = rm(rb); val b1 = rm(rb + 1); val b2 = rm(rb + 2); val b3 = rm(rb + 3)
            c00 += a0 * b0; c01 += a0 * b1; c02 += a0 * b2; c03 += a0 * b3
            c10 += a1 * b0; c11 += a1 * b1; c12 += a1 * b2; c13 += a1 * b3
            c20 += a2 * b0; c21 += a2 * b1; c22 += a2 * b2; c23 += a2 * b3
            c30 += a3 * b0; c31 += a3 * b1; c32 += a3 * b2; c33 += a3 * b3
            la += lk; rb += oc; k += 1
          }
          out(o0) = c00; out(o0 + 1) = c01; out(o0 + 2) = c02; out(o0 + 3) = c03
          out(o1) = c10; out(o1 + 1) = c11; out(o1 + 2) = c12; out(o1 + 3) = c13
          out(o2) = c20; out(o2 + 1) = c21; out(o2 + 2) = c22; out(o2 + 3) = c23
          out(o3) = c30; out(o3 + 1) = c31; out(o3 + 2) = c32; out(o3 + 3) = c33
          c += 4
        }
        while (c < oc) {
          val o0 = r * oc + c
          var s0 = out(o0); var s1 = out(o0 + oc); var s2 = out(o0 + 2 * oc); var s3 = out(o0 + 3 * oc)
          var la = r * lr + k0 * lk
          var rb = k0 * oc + c
          var k = k0
          while (k < k1) {
            val b = rm(rb)
            s0 += l(la) * b; s1 += l(la + lr) * b; s2 += l(la + 2 * lr) * b; s3 += l(la + 3 * lr) * b
            la += lk; rb += oc; k += 1
          }
          out(o0) = s0; out(o0 + oc) = s1; out(o0 + 2 * oc) = s2; out(o0 + 3 * oc) = s3
          c += 1
        }
        r += 4
      }
      while (r < r1) { // leftover rows stream the rows of `rm`, as a 1-row product does
        val o = r * oc
        var la = r * lr + k0 * lk
        var k = k0
        while (k < k1) {
          val a = l(la)
          if (a != 0.0) {
            val rb = k * oc
            var j = 0
            while (j < oc) { out(o + j) += a * rm(rb + j); j += 1 }
          }
          la += lk; k += 1
        }
        r += 1
      }
      k0 = k1
    }
  }
}
