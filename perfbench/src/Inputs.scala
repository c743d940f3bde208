package perfbench

import repro.core.Trmp.TrmpConfig
import repro.tables.TableIII
import repro.world.{EntityWorld, WorldConfig}
import scala.util.Random

/** One marketer request: seed phrases of a topic, expansion depth, export size. */
final case class Request(topic: Int, phrases: Seq[String], k: Int, topKUsers: Int)

/** Every input the benchmark feeds the program, generated from `--seed`. */
object Inputs {
  val Scale: TableIII.Scale = TableIII.Scale()

  /** The Table III world (600 entities, 12 topics, 800 users) re-seeded. */
  def world(seed: Long): WorldConfig = Scale.world.copy(seed = 7L + 1009L * seed)

  /** The Table III TRMP config re-seeded and cut to fit the benchmark's time
    * budget: one week instead of two, and 2 days of behaviour logs instead of
    * 15. The ensemble keeps its window of 2, padded with the week's own model
    * as `Trmp.run` pads early weeks, so it does a steady-state week's work.
    * ALPC and ensemble epochs stay at Table III's 30 and 20: with fewer, the
    * number of accepted relations swings between 0 and all candidates from
    * seed to seed.
    */
  def trmp(seed: Long): TrmpConfig = Scale.trmp.copy(
    seed = 211L + 7919L * seed,
    weeks = 1,
    logCfg = Scale.trmp.logCfg.copy(days = 2))

  /** The serving state of `online_targeting`: the same calls with one ALPC and
    * one ensemble epoch, publishing every candidate relation with its
    * ensemble score (see `Workloads`). The full offline path does not fit a
    * run twice; the serving layers see the same shapes either way.
    */
  def servingTrmp(seed: Long): TrmpConfig = {
    val c = trmp(seed)
    c.copy(alpcCfg = c.alpcCfg.copy(epochs = 1), ensCfg = c.ensCfg.copy(epochs = 1))
  }

  val KChoices: Seq[Int] = Seq(1, 2, 3)
  val TopKChoices: Seq[Int] = Seq(120, 400)

  /** Requests: topic uniform, 1–3 distinct seed phrases of that topic drawn by
    * popularity. k ∈ {1,2,3} and topKUsers ∈ {120, 400} come in shuffled
    * blocks holding each k once, so every run sees the same depth mix.
    */
  def requests(world: EntityWorld, seed: Long, n: Int): IndexedSeq[Request] = {
    val rng = new Random(seed * 104729L + 17L)
    val byTopic = world.entities.groupBy(_.topic)
    val ks = Iterator.continually(rng.shuffle(KChoices)).flatten
    IndexedSeq.fill(n) {
      val topic = rng.nextInt(world.cfg.nTopics)
      var pool = byTopic(topic).toIndexedSeq
      val phrases = Seq.fill(1 + rng.nextInt(3)) {
        val x = rng.nextDouble() * pool.map(_.popularity).sum
        val i = pool.scanLeft(0.0)(_ + _.popularity).tail.indexWhere(_ > x) match {
          case -1 => pool.length - 1
          case j  => j
        }
        val e = pool(i)
        pool = pool.patch(i, Nil, 1)
        e.name
      }
      Request(topic, phrases, ks.next(), TopKChoices(rng.nextInt(TopKChoices.length)))
    }
  }
}
