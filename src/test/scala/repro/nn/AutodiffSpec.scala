package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Finite-difference gradient checks for every autodiff op. A scalar loss is
  * built from each op's output; analytic ∂loss/∂param is compared to central
  * differences. This is the safety net under all GNN training in the repo.
  */
class AutodiffSpec extends AnyFunSuite {

  private val rng = new Random(7)
  private val h = 1e-5
  private val tol = 1e-4

  /** Checks d(loss(params))/d(params(0)) element-wise by central differences. */
  private def gradCheck(params: Seq[Param])(lossFn: Tape => Node): Unit = {
    implicit val tape: Tape = new Tape
    val loss = lossFn(tape)
    params.foreach(_.zeroGrad())
    tape.backward(loss)
    params.foreach { p =>
      val analytic = p.g.copy()
      var i = 0
      while (i < p.v.data.length) {
        val orig = p.v.data(i)
        p.v.data(i) = orig + h
        val up = lossFn(new Tape).v(0, 0)
        p.v.data(i) = orig - h
        val dn = lossFn(new Tape).v(0, 0)
        p.v.data(i) = orig
        val numeric = (up - dn) / (2 * h)
        assert(math.abs(numeric - analytic.data(i)) < tol,
          s"param ${p.name} idx $i: numeric=$numeric analytic=${analytic.data(i)}")
        i += 1
      }
    }
  }

  private def p(r: Int, c: Int, name: String) = new Param(Tensor.glorot(r, c, rng), name)

  test("matmul gradient") {
    val a = p(3, 4, "a"); val b = p(4, 2, "b")
    gradCheck(Seq(a, b)) { implicit t => Ad.mean(Ad.matmul(Ad.leaf(a), Ad.leaf(b))) }
  }

  test("add and sub gradients") {
    val a = p(2, 3, "a"); val b = p(2, 3, "b")
    gradCheck(Seq(a, b)) { implicit t => Ad.mean(Ad.add(Ad.leaf(a), Ad.leaf(b))) }
    gradCheck(Seq(a, b)) { implicit t => Ad.mean(Ad.sub(Ad.leaf(a), Ad.leaf(b))) }
  }

  test("addBias gradient (bias broadcast)") {
    val a = p(4, 3, "a"); val b = p(1, 3, "bias")
    gradCheck(Seq(a, b)) { implicit t => Ad.mean(Ad.sigmoid(Ad.addBias(Ad.leaf(a), Ad.leaf(b)))) }
  }

  test("hadamard and scale gradients") {
    val a = p(2, 3, "a"); val b = p(2, 3, "b")
    gradCheck(Seq(a, b)) { implicit t => Ad.mean(Ad.hadamard(Ad.leaf(a), Ad.leaf(b))) }
    gradCheck(Seq(a)) { implicit t => Ad.mean(Ad.scale(Ad.leaf(a), 2.5)) }
  }

  test("sigmoid, tanh, relu gradients") {
    val a = p(3, 3, "a")
    gradCheck(Seq(a)) { implicit t => Ad.mean(Ad.sigmoid(Ad.leaf(a))) }
    gradCheck(Seq(a)) { implicit t => Ad.mean(Ad.tanh(Ad.leaf(a))) }
    // keep relu away from the kink for finite differences
    val b = new Param(Tensor.fill(2, 2, 0.5), "b")
    b.v.data(1) = -0.7
    gradCheck(Seq(b)) { implicit t => Ad.mean(Ad.relu(Ad.leaf(b))) }
  }

  test("softmaxRows gradient") {
    val a = p(3, 4, "a")
    gradCheck(Seq(a)) { implicit t =>
      val s = Ad.softmaxRows(Ad.leaf(a))
      Ad.mean(Ad.hadamard(s, s)) // non-linear downstream so grads are non-trivial
    }
  }

  test("gatherRows gradient with repeated indices") {
    val a = p(4, 3, "a")
    val idx = Array(0, 2, 2, 3, 1, 0)
    gradCheck(Seq(a)) { implicit t => Ad.mean(Ad.tanh(Ad.gatherRows(Ad.leaf(a), idx))) }
  }

  test("reshape gradient") {
    val a = p(6, 1, "a")
    gradCheck(Seq(a)) { implicit t => Ad.mean(Ad.tanh(Ad.reshape(Ad.leaf(a), 2, 3))) }
  }

  test("concatCols gradient") {
    val a = p(3, 2, "a"); val b = p(3, 4, "b")
    gradCheck(Seq(a, b)) { implicit t => Ad.mean(Ad.sigmoid(Ad.concatCols(Ad.leaf(a), Ad.leaf(b)))) }
  }

  test("transpose gradient") {
    val a = p(3, 4, "a"); val b = p(3, 4, "b")
    gradCheck(Seq(a, b)) { implicit t => Ad.mean(Ad.matmul(Ad.leaf(a), Ad.transpose(Ad.leaf(b)))) }
  }

  test("attnPool gradient") {
    val k = 3
    val hnb = p(6, 4, "hnb") // B=2, K=3
    val w = p(2, 3, "w")
    gradCheck(Seq(hnb, w)) { implicit t => Ad.mean(Ad.tanh(Ad.attnPool(Ad.leaf(hnb), Ad.leaf(w), k))) }
  }

  test("rowDot gradient") {
    val a = p(4, 3, "a"); val b = p(4, 3, "b")
    gradCheck(Seq(a, b)) { implicit t => Ad.mean(Ad.sigmoid(Ad.rowDot(Ad.leaf(a), Ad.leaf(b)))) }
  }

  test("bceWithLogits gradient and value") {
    val a = p(5, 1, "logits")
    val labels = Array(1.0, 0.0, 1.0, 0.0, 1.0)
    gradCheck(Seq(a)) { implicit t => Ad.bceWithLogits(Ad.leaf(a), labels) }
    // value check: logit 0 with any label gives ln 2
    val tape: Tape = new Tape
    val z = new Param(Tensor.zeros(1, 1), "z")
    val l = Ad.bceWithLogits(Ad.leaf(z)(tape), Array(1.0))(tape)
    assert(math.abs(l.v(0, 0) - math.log(2)) < 1e-12)
  }

  test("infoNceDiag gradient and uniform value") {
    val a = p(4, 4, "logits")
    gradCheck(Seq(a)) { implicit t => Ad.infoNceDiag(Ad.leaf(a)) }
    // all-equal logits → loss = ln(n)
    val tape: Tape = new Tape
    val u = new Param(Tensor.zeros(3, 3), "u")
    val l = Ad.infoNceDiag(Ad.leaf(u)(tape))(tape)
    assert(math.abs(l.v(0, 0) - math.log(3)) < 1e-12)
  }

  test("batchedAttention gradient") {
    val tokens = 3
    val q = p(6, 2, "q"); val k = p(6, 2, "k"); val v = p(6, 2, "v") // B=2, T=3
    gradCheck(Seq(q, k, v)) { implicit t =>
      Ad.mean(Ad.tanh(Ad.batchedAttention(Ad.leaf(q), Ad.leaf(k), Ad.leaf(v), tokens)))
    }
  }

  test("gradients accumulate across reuse of a node") {
    val a = p(2, 2, "a")
    gradCheck(Seq(a)) { implicit t =>
      val x = Ad.leaf(a)
      Ad.mean(Ad.add(Ad.hadamard(x, x), x)) // a used three times
    }
  }

  test("matmul gradient with one const operand") {
    val a = p(3, 4, "a"); val b = p(4, 2, "b")
    val ca = Tensor.glorot(3, 4, rng); val cb = Tensor.glorot(4, 2, rng)
    gradCheck(Seq(b)) { implicit t => Ad.mean(Ad.tanh(Ad.matmul(Ad.const(ca), Ad.leaf(b)))) }
    gradCheck(Seq(a)) { implicit t => Ad.mean(Ad.tanh(Ad.matmul(Ad.leaf(a), Ad.const(cb)))) }
  }

  test("concatCols gradient with a const block") {
    val a = p(3, 2, "a")
    val c = Tensor.glorot(3, 4, rng)
    gradCheck(Seq(a)) { implicit t => Ad.mean(Ad.sigmoid(Ad.concatCols(Ad.leaf(a), Ad.const(c)))) }
    gradCheck(Seq(a)) { implicit t => Ad.mean(Ad.sigmoid(Ad.concatCols(Ad.const(c), Ad.leaf(a)))) }
  }

  test("const operands never get a gradient buffer") {
    implicit val tape: Tape = new Tape
    val w = p(4, 4, "w")
    val x = Ad.leaf(w)
    val consts = Seq.fill(6)(Ad.const(Tensor.glorot(4, 4, rng)))
    val col = Ad.const(Tensor.glorot(16, 1, rng))
    val terms = Seq(
      Ad.matmul(consts(0), x),
      Ad.matmul(x, consts(1)),
      Ad.hadamard(x, consts(2)),
      Ad.hadamard(consts(3), x),
      Ad.add(Ad.gatherRows(consts(4), Array(3, 0, 3, 1)), Ad.reshape(Ad.hadamard(Ad.reshape(x, 16, 1), col), 4, 4)),
      Ad.matmul(Ad.concatCols(x, consts(5)), Ad.const(Tensor.glorot(8, 4, rng))))
    val loss = Ad.mean(Ad.tanh(terms.reduceLeft(Ad.add(_, _))))
    w.zeroGrad()
    tape.backward(loss)
    (consts :+ col).foreach(c => assert(c.g == null, "a const input got a gradient buffer"))
    assert(w.g.frobenius > 0)
  }

  test("a node computed only from constants does not require a gradient") {
    implicit val tape: Tape = new Tape
    val c = Ad.const(Tensor.glorot(3, 3, rng))
    val x = Ad.leaf(p(3, 3, "x"))
    assert(!c.requiresGrad && x.requiresGrad)
    val fromConsts = Seq(Ad.matmul(c, c), Ad.hadamard(c, c), Ad.gatherRows(c, Array(2, 2)),
      Ad.reshape(c, 9, 1), Ad.concatCols(c, c), Ad.tanh(Ad.add(c, c)), Ad.softmaxRows(c))
    fromConsts.foreach(n => assert(!n.requiresGrad && n.backFn == null))
    assert(Ad.matmul(c, x).requiresGrad && Ad.concatCols(x, c).requiresGrad)
    assert(Ad.hadamard(Ad.matmul(c, c), x).requiresGrad)
  }

  test("backward requires scalar loss") {
    implicit val tape: Tape = new Tape
    val a = Ad.const(Tensor.ones(2, 2))
    intercept[IllegalArgumentException](tape.backward(a))
  }
}
