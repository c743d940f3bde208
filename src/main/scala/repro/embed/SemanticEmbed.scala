package repro.embed

import repro.world.EntityWorld
import scala.util.Random

/** Stand-in for the paper's BERT semantic embeddings `E^Se`.
  *
  * The real system embeds entity names with BERT pre-trained on zh-Wikipedia;
  * what downstream stages rely on is that `E^Se` correlates with human-judged
  * relatedness but imperfectly. We reproduce that: the embedding is the
  * entity's latent topic vector mixed with hashed character-n-gram features of
  * its surface name plus Gaussian noise, L2-normalised.
  *
  * `signal` ∈ [0,1] controls how much latent structure leaks through —
  * BERT-quality ≈ 0.7; lowering it degrades candidate generation exactly the
  * way a worse language model would.
  */
object SemanticEmbed {

  final case class SemConfig(signal: Double = 0.7, noise: Double = 0.25, seed: Long = 29L) {

    /** Width of `E^Se`, the same in every config. */
    def dim: Int = 16
  }

  def embed(world: EntityWorld, cfg: SemConfig = SemConfig()): Array[Array[Double]] = {
    world.entities.map { e =>
      val r = new Random(cfg.seed * 131 + e.id)
      val lat = project(e.latent, cfg.dim)
      val ng = ngramFeatures(e.name, cfg.dim)
      val v = Array.tabulate(cfg.dim) { i =>
        cfg.signal * lat(i) + (1 - cfg.signal) * ng(i) + r.nextGaussian() * cfg.noise
      }
      EntityWorld.normalize(v)
    }
  }

  /** Deterministic projection/padding of the latent vector to `dim`. */
  private def project(latent: Array[Double], dim: Int): Array[Double] =
    EntityWorld.normalize(Array.tabulate(dim)(i => latent(i % latent.length)))

  /** Hashed character trigram features of the surface form. */
  private[embed] def ngramFeatures(name: String, dim: Int): Array[Double] = {
    val v = new Array[Double](dim)
    val padded = s"^$name$$"
    padded.sliding(3).foreach { g =>
      val h = scala.util.hashing.MurmurHash3.stringHash(g)
      v(math.floorMod(h, dim)) += (if ((h >> 16 & 1) == 0) 1.0 else -1.0)
    }
    EntityWorld.normalize(v)
  }
}
