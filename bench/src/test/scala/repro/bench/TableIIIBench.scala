package repro.bench

import repro.SparkSpec
import repro.tables.TableIII

/** Regenerates paper Table III and checks its qualitative shape: EGL wins
  * conversion/CVR on most services with roughly flat exposure, and online
  * user targeting completes in interactive time.
  */
class TableIIIBench extends SparkSpec {

  private lazy val result = TableIII.run(spark)

  test("Table III reproduction") {
    println(TableIII.format(result))
  }

  test("shape: EGL lifts CVR on most services, as in the paper (4 of 5)") {
    val wins = result.rows.count(_.cvrGainPct > 0)
    assert(wins >= 3, s"CVR gains: ${result.rows.map(r => f"${r.service}:${r.cvrGainPct}%+.1f%%")}")
  }

  test("shape: conversion gains track CVR gains") {
    result.rows.foreach { r =>
      assert(math.signum(r.conversionGainPct) == math.signum(r.cvrGainPct) ||
        math.abs(r.conversionGainPct - r.cvrGainPct) < 5.0,
        s"${r.service}: conv ${r.conversionGainPct} vs cvr ${r.cvrGainPct}")
    }
  }

  test("shape: exposure is roughly flat between arms") {
    result.rows.foreach { r =>
      assert(math.abs(r.exposureGainPct) < 10.0,
        s"${r.service}: exposure gain ${r.exposureGainPct}% should be small")
    }
  }

  test("shape: every targeting request completes in interactive time") {
    result.rows.foreach { r =>
      assert(r.runtimeMillis < 4 * 60 * 1000,
        f"${r.service}: ${r.runtimeMillis}%.1f ms exceeds the paper's 2-4 min envelope")
    }
  }

  test("CVRs live in the paper's plausible band") {
    result.rows.foreach { r =>
      assert(r.eglCvr > 0.02 && r.eglCvr < 0.6, s"${r.service}: EGL CVR ${r.eglCvr}")
    }
  }
}
