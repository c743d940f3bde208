package repro.nn

import scala.collection.mutable.ArrayBuffer

/** Tape-based reverse-mode autodiff over [[Tensor]]s.
  *
  * Every op appends a node to the implicit [[Tape]]; `Tape.backward(loss)`
  * walks the tape in reverse, invoking each node's backward closure which
  * accumulates into parents' `grad`. [[Param]]s are persistent leaves whose
  * gradients survive the tape (consumed by [[Adam]]).
  *
  * A node's `requiresGrad` is false for [[Ad.const]] and for any op whose
  * inputs are all constant. Such a node gets no backward closure, and the ops
  * skip the gradient work and the buffer for any input that does not require
  * a gradient, so constant inputs (feature matrices, fixed token blocks) cost
  * nothing in backward. Parameter gradients are unaffected: nothing flows from
  * a constant back to a [[Param]].
  *
  * Matmul backward uses `Tensor.mmNT`/`mmTN`, whose summation order is that of
  * `mm` (see [[Tensor]]), so gradients are bit-identical to the products of
  * explicit transposes. Correctness is checked against finite differences in
  * `nn` tests.
  */
final class Tape {
  private[nn] val nodes = ArrayBuffer[Node]()

  def register(n: Node): Unit = nodes += n

  /** Seeds `loss` (must be 1×1) with gradient 1 and back-propagates. */
  def backward(loss: Node): Unit = {
    require(loss.v.rows == 1 && loss.v.cols == 1, "backward: loss must be scalar")
    loss.grad.data(0) = 1.0
    var i = nodes.length - 1
    while (i >= 0) {
      val n = nodes(i)
      if (n.g != null && n.backFn != null) n.backFn()
      i -= 1
    }
  }
}

/** One value in the computation graph. `g` is allocated lazily on first use so
  * untouched branches cost nothing in backward; a node that does not
  * `requiresGrad` never allocates it.
  */
final class Node(val v: Tensor, val requiresGrad: Boolean)(implicit tape: Tape) {
  private[nn] var g: Tensor = _
  private[nn] var backFn: () => Unit = _
  tape.register(this)

  def grad: Tensor = { if (g == null) g = Tensor.zeros(v.rows, v.cols); g }

  /** Adds a fresh matrix product, which nothing else holds, to the gradient.
    * A first product becomes the buffer itself: each of its elements is a sum
    * started from +0, so never -0.0, and adding it to zeros would return it
    * bit for bit.
    */
  private[nn] def addProduct(p: Tensor): Unit = if (g == null) g = p else g.addInPlace(p)
}

/** A trainable parameter: persistent value + gradient accumulator. */
final class Param(val v: Tensor, val name: String = "") {
  val g: Tensor = Tensor.zeros(v.rows, v.cols)
  def zeroGrad(): Unit = g.zeroInPlace()
}

/** The op library. All ops are pure w.r.t. inputs; gradients accumulate. */
object Ad {

  def leaf(p: Param)(implicit t: Tape): Node = {
    val n = new Node(p.v, requiresGrad = true)
    n.backFn = () => p.g.addInPlace(n.g)
    n
  }

  def const(v: Tensor)(implicit t: Tape): Node = new Node(v, requiresGrad = false)

  /** The node for an op's value `v` over `inputs`: it requires a gradient iff
    * some input does, and only then gets `backward(out)` as its closure.
    */
  private def op(v: Tensor, inputs: Node*)(backward: Node => Unit)(implicit t: Tape): Node = {
    val out = new Node(v, inputs.exists(_.requiresGrad))
    if (out.requiresGrad) out.backFn = () => backward(out)
    out
  }

  def matmul(a: Node, b: Node)(implicit t: Tape): Node =
    op(a.v mm b.v, a, b) { out =>
      if (a.requiresGrad) a.addProduct(out.g mmNT b.v)
      if (b.requiresGrad) b.addProduct(a.v mmTN out.g)
    }

  def add(a: Node, b: Node)(implicit t: Tape): Node =
    op(a.v + b.v, a, b) { out =>
      if (a.requiresGrad) a.grad.addInPlace(out.g)
      if (b.requiresGrad) b.grad.addInPlace(out.g)
    }

  def sub(a: Node, b: Node)(implicit t: Tape): Node =
    op(a.v - b.v, a, b) { out =>
      if (a.requiresGrad) a.grad.addInPlace(out.g)
      if (b.requiresGrad) {
        val (bg, og) = (b.grad.data, out.g.data)
        var i = 0; while (i < bg.length) { bg(i) += (-1.0) * og(i); i += 1 }
      }
    }

  /** Broadcast-add a 1×c bias row to every row of `a`. */
  def addBias(a: Node, bias: Node)(implicit t: Tape): Node =
    op(a.v.addRow(bias.v), a, bias) { out =>
      if (a.requiresGrad) a.grad.addInPlace(out.g)
      if (bias.requiresGrad) {
        val bg = bias.grad.data
        val og = out.g.data
        val c = out.g.cols
        var r = 0
        while (r < out.g.rows) {
          var j = 0
          while (j < c) { bg(j) += og(r * c + j); j += 1 }
          r += 1
        }
      }
    }

  def hadamard(a: Node, b: Node)(implicit t: Tape): Node =
    op(a.v.hadamard(b.v), a, b) { out =>
      val og = out.g.data
      def acc(x: Node, other: Array[Double]): Unit = if (x.requiresGrad) {
        val xg = x.grad.data
        var i = 0; while (i < xg.length) { xg(i) += og(i) * other(i); i += 1 }
      }
      acc(a, b.v.data)
      acc(b, a.v.data)
    }

  def scale(a: Node, s: Double)(implicit t: Tape): Node =
    op(s *: a.v, a) { out =>
      val (ag, og) = (a.grad.data, out.g.data)
      var i = 0; while (i < ag.length) { ag(i) += og(i) * s; i += 1 }
    }

  def sigmoid(a: Node)(implicit t: Tape): Node = {
    val sv = a.v.map(x => 1.0 / (1.0 + math.exp(-x)))
    op(sv, a) { out =>
      val (ag, og, s) = (a.grad.data, out.g.data, sv.data)
      var i = 0; while (i < ag.length) { ag(i) += og(i) * (s(i) * (1 - s(i))); i += 1 }
    }
  }

  def tanh(a: Node)(implicit t: Tape): Node = {
    val tv = a.v.map(math.tanh)
    op(tv, a) { out =>
      val (ag, og, y) = (a.grad.data, out.g.data, tv.data)
      var i = 0; while (i < ag.length) { ag(i) += og(i) * (1 - y(i) * y(i)); i += 1 }
    }
  }

  def relu(a: Node)(implicit t: Tape): Node =
    op(a.v.map(x => if (x > 0) x else 0.0), a) { out =>
      val (ag, og, x) = (a.grad.data, out.g.data, a.v.data)
      var i = 0; while (i < ag.length) { ag(i) += (if (x(i) > 0) og(i) else 0.0); i += 1 }
    }

  /** Gathers rows of `a` at `idx` (with repetition); backward scatter-adds. */
  def gatherRows(a: Node, idx: Array[Int])(implicit t: Tape): Node = {
    val c = a.v.cols
    val out = Tensor.zeros(idx.length, c)
    var i = 0
    while (i < idx.length) { System.arraycopy(a.v.data, idx(i) * c, out.data, i * c, c); i += 1 }
    op(out, a) { node =>
      val ag = a.grad.data
      val og = node.g.data
      var i = 0
      while (i < idx.length) {
        val src = i * c; val dst = idx(i) * c
        var j = 0
        while (j < c) { ag(dst + j) += og(src + j); j += 1 }
        i += 1
      }
    }
  }

  /** Reinterprets an (r*k)×1 column as r×k (same backing order). */
  def reshape(a: Node, rows: Int, cols: Int)(implicit t: Tape): Node = {
    require(rows * cols == a.v.rows * a.v.cols, "reshape size mismatch")
    op(new Tensor(rows, cols, a.v.data.clone()), a) { out =>
      a.grad.addInPlace(new Tensor(a.v.rows, a.v.cols, out.g.data))
    }
  }

  def concatCols(a: Node, b: Node)(implicit t: Tape): Node = {
    require(a.v.rows == b.v.rows, "concatCols row mismatch")
    val (ca, cb) = (a.v.cols, b.v.cols)
    val out = Tensor.zeros(a.v.rows, ca + cb)
    var r = 0
    while (r < a.v.rows) {
      System.arraycopy(a.v.data, r * ca, out.data, r * (ca + cb), ca)
      System.arraycopy(b.v.data, r * cb, out.data, r * (ca + cb) + ca, cb)
      r += 1
    }
    op(out, a, b) { node =>
      val og = node.g.data
      def scatter(x: Node, off: Int, cx: Int): Unit = if (x.requiresGrad) {
        val xg = x.grad.data
        var r = 0
        while (r < x.v.rows) {
          val src = r * (ca + cb) + off
          var j = 0
          while (j < cx) { xg(r * cx + j) += og(src + j); j += 1 }
          r += 1
        }
      }
      scatter(a, 0, ca)
      scatter(b, ca, cb)
    }
  }

  /** Row-wise softmax (numerically stabilised). */
  def softmaxRows(a: Node)(implicit t: Tape): Node = {
    val (r, c) = (a.v.rows, a.v.cols)
    val av = a.v.data
    val sv = Tensor.zeros(r, c)
    val s = sv.data
    var i = 0
    while (i < r) {
      val o = i * c
      var mx = Double.NegativeInfinity
      var j = 0
      while (j < c) { mx = math.max(mx, av(o + j)); j += 1 }
      var z = 0.0
      j = 0
      while (j < c) { val e = math.exp(av(o + j) - mx); s(o + j) = e; z += e; j += 1 }
      j = 0
      while (j < c) { s(o + j) /= z; j += 1 }
      i += 1
    }
    op(sv, a) { out =>
      val ag = a.grad.data
      val og = out.g.data
      var i = 0
      while (i < r) {
        val o = i * c
        var dot = 0.0
        var j = 0
        while (j < c) { dot += og(o + j) * s(o + j); j += 1 }
        j = 0
        while (j < c) { ag(o + j) += s(o + j) * (og(o + j) - dot); j += 1 }
        i += 1
      }
    }
  }

  /** Attention pooling: hnb is (B*K)×d, w is B×K; out[b] = Σ_k w[b,k]·hnb[b*K+k]. */
  def attnPool(hnb: Node, w: Node, k: Int)(implicit t: Tape): Node = {
    val b = w.v.rows
    require(hnb.v.rows == b * k, s"attnPool: ${hnb.v.rows} != $b*$k")
    val d = hnb.v.cols
    val (hv, wv) = (hnb.v.data, w.v.data)
    val out = Tensor.zeros(b, d)
    val o = out.data
    var bi = 0
    while (bi < b) {
      var ki = 0
      while (ki < k) {
        val wk = wv(bi * k + ki)
        if (wk != 0.0) {
          val off = (bi * k + ki) * d
          var j = 0
          while (j < d) { o(bi * d + j) += wk * hv(off + j); j += 1 }
        }
        ki += 1
      }
      bi += 1
    }
    op(out, hnb, w) { node =>
      val og = node.g.data
      val hg = if (hnb.requiresGrad) hnb.grad.data else null
      val wg = if (w.requiresGrad) w.grad.data else null
      var bi = 0
      while (bi < b) {
        var ki = 0
        while (ki < k) {
          val off = (bi * k + ki) * d
          if (hg != null) {
            val wk = wv(bi * k + ki)
            var j = 0
            while (j < d) { hg(off + j) += wk * og(bi * d + j); j += 1 }
          }
          if (wg != null) {
            var dot = 0.0
            var j = 0
            while (j < d) { dot += og(bi * d + j) * hv(off + j); j += 1 }
            wg(bi * k + ki) += dot
          }
          ki += 1
        }
        bi += 1
      }
    }
  }

  /** Row-wise dot product of two equal-shape matrices → n×1. */
  def rowDot(a: Node, b: Node)(implicit t: Tape): Node = {
    require(a.v.rows == b.v.rows && a.v.cols == b.v.cols, "rowDot shape mismatch")
    val n = a.v.rows; val c = a.v.cols
    val (av, bv) = (a.v.data, b.v.data)
    val out = Tensor.zeros(n, 1)
    var i = 0
    while (i < n) {
      var s = 0.0; var j = 0
      while (j < c) { s += av(i * c + j) * bv(i * c + j); j += 1 }
      out.data(i) = s; i += 1
    }
    op(out, a, b) { node =>
      val og = node.g.data
      def acc(x: Node, other: Array[Double]): Unit = if (x.requiresGrad) {
        val xg = x.grad.data
        var i = 0
        while (i < n) {
          val g = og(i)
          var j = 0
          while (j < c) { xg(i * c + j) += g * other(i * c + j); j += 1 }
          i += 1
        }
      }
      acc(a, bv)
      acc(b, av)
    }
  }

  def transpose(a: Node)(implicit t: Tape): Node =
    op(a.v.t, a)(out => a.grad.addInPlace(out.g.t))

  def mean(a: Node)(implicit t: Tape): Node = {
    val n = a.v.rows * a.v.cols
    op(Tensor.fill(1, 1, a.v.sum / n), a) { out =>
      a.grad.addInPlace(Tensor.fill(a.v.rows, a.v.cols, out.g.data(0) / n))
    }
  }

  /** Mean binary cross-entropy with logits. `labels` in {0,1}, logits n×1. */
  def bceWithLogits(logits: Node, labels: Array[Double])(implicit t: Tape): Node = {
    val n = logits.v.rows
    require(logits.v.cols == 1 && labels.length == n, "bceWithLogits shape mismatch")
    val lv = logits.v.data
    var loss = 0.0
    var i = 0
    while (i < n) {
      val z = lv(i); val y = labels(i)
      // stable: max(z,0) - z*y + log(1+exp(-|z|))
      loss += math.max(z, 0) - z * y + math.log1p(math.exp(-math.abs(z)))
      i += 1
    }
    op(Tensor.fill(1, 1, loss / n), logits) { out =>
      val lg = logits.grad.data
      val s = out.g.data(0) / n
      var i = 0
      while (i < n) {
        lg(i) += s * (1.0 / (1.0 + math.exp(-lv(i))) - labels(i))
        i += 1
      }
    }
  }

  /** InfoNCE over a logits matrix whose diagonal holds the positive pair:
    * loss = -mean_i log softmax(row_i)[i].
    */
  def infoNceDiag(logits: Node)(implicit t: Tape): Node = {
    val n = logits.v.rows
    require(logits.v.cols == n, "infoNceDiag: square matrix expected")
    val lv = logits.v.data
    val probs = new Array[Double](n * n)
    var loss = 0.0
    var i = 0
    while (i < n) {
      val o = i * n
      var mx = Double.NegativeInfinity
      var j = 0
      while (j < n) { mx = math.max(mx, lv(o + j)); j += 1 }
      var s = 0.0
      j = 0
      while (j < n) { val e = math.exp(lv(o + j) - mx); probs(o + j) = e; s += e; j += 1 }
      j = 0
      while (j < n) { probs(o + j) /= s; j += 1 }
      loss -= math.log(math.max(probs(o + i), 1e-12))
      i += 1
    }
    op(Tensor.fill(1, 1, loss / n), logits) { out =>
      val lg = logits.grad.data
      val s = out.g.data(0) / n
      var i = 0
      while (i < n) {
        var j = 0
        while (j < n) {
          lg(i * n + j) += s * (probs(i * n + j) - (if (i == j) 1.0 else 0.0))
          j += 1
        }
        i += 1
      }
    }
  }

  /** Batched self-attention for the ensemble encoder. Q,K,V are (B*T)×dk laid
    * out sample-major; attention is computed within each sample's T tokens.
    */
  def batchedAttention(q: Node, k: Node, v: Node, tokens: Int)(implicit t: Tape): Node = {
    val bt = q.v.rows
    require(bt % tokens == 0, "batchedAttention: rows not divisible by tokens")
    val b = bt / tokens
    val dk = q.v.cols
    require(k.v.cols == dk && v.v.rows == bt, "batchedAttention shape mismatch")
    val dv = v.v.cols
    val (qv, kv, vv) = (q.v.data, k.v.data, v.v.data)
    val scaleF = 1.0 / math.sqrt(dk.toDouble)
    // row (b*T+i) holds softmax over sample b's tokens
    val attn = new Array[Double](bt * tokens)
    val out = Tensor.zeros(bt, dv)
    val o = out.data
    var bi = 0
    while (bi < b) {
      val base = bi * tokens
      var i = 0
      while (i < tokens) {
        val ai = (base + i) * tokens
        var mx = Double.NegativeInfinity
        var j = 0
        while (j < tokens) {
          var s = 0.0; var c = 0
          while (c < dk) { s += qv((base + i) * dk + c) * kv((base + j) * dk + c); c += 1 }
          attn(ai + j) = s * scaleF
          mx = math.max(mx, attn(ai + j))
          j += 1
        }
        var z = 0.0
        j = 0
        while (j < tokens) { val e = math.exp(attn(ai + j) - mx); attn(ai + j) = e; z += e; j += 1 }
        j = 0
        while (j < tokens) {
          attn(ai + j) /= z
          val a = attn(ai + j)
          var c = 0
          while (c < dv) { o((base + i) * dv + c) += a * vv((base + j) * dv + c); c += 1 }
          j += 1
        }
        i += 1
      }
      bi += 1
    }
    op(out, q, k, v) { node =>
      val og = node.g.data
      val (qg, kg, vg) = (q.grad.data, k.grad.data, v.grad.data)
      val dA = new Array[Double](tokens)
      var bi = 0
      while (bi < b) {
        val base = bi * tokens
        var i = 0
        while (i < tokens) {
          val ai = (base + i) * tokens
          val gi = (base + i) * dv
          // dA[i,j] = dot(dOut[i], V[j]); dV[j] += A[i,j]*dOut[i]
          var j = 0
          while (j < tokens) {
            val a = attn(ai + j)
            val vj = (base + j) * dv
            var s = 0.0; var c = 0
            while (c < dv) {
              s += og(gi + c) * vv(vj + c)
              vg(vj + c) += a * og(gi + c)
              c += 1
            }
            dA(j) = s
            j += 1
          }
          // softmax backward: dS[j] = A[j]*(dA[j]-Σ dA∘A)
          var dot = 0.0
          j = 0
          while (j < tokens) { dot += dA(j) * attn(ai + j); j += 1 }
          j = 0
          while (j < tokens) {
            val dS = attn(ai + j) * (dA(j) - dot) * scaleF
            val qi = (base + i) * dk; val kj = (base + j) * dk
            var c = 0
            while (c < dk) {
              qg(qi + c) += dS * kv(kj + c)
              kg(kj + c) += dS * qv(qi + c)
              c += 1
            }
            j += 1
          }
          i += 1
        }
        bi += 1
      }
    }
  }
}
