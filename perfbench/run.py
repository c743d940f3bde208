#!/usr/bin/env python3
"""EGL benchmark: builds the program from source, runs one workload, prints
the result as one JSON line.

    python3 perfbench/run.py --workload offline_trmp --seed 1 --seconds 5 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench.
With --trace 1 the workload runs twice with the same seed, each in a fresh
JVM: untraced, then traced. The traced run reports the per-layer metrics,
compares its published edge set with the untraced one, and reports the
tracing overhead against it. An untraced result of the same workload, seed
and build, kept from an earlier --trace 0 run, stands in for the untraced
JVM.
"""
import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
STAMP = os.path.join(BUILD, "classes.stamp")


def spark_jars(home):
    return glob.glob(os.path.join(home, "jars", "spark-core_*.jar"))


def spark_home():
    """$SPARK_HOME, else the first Spark distribution with a spark-submit on PATH."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = os.path.join(d, "spark-submit")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
        if os.path.isfile(submit) and spark_jars(home):
            return home
    return ""


SPARK_HOME = spark_home()
JAVA = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
# the whole invocation, both JVMs of a traced run included, must end in time
DEADLINE_S = 175

# JDK 17 module opens Spark needs when started from plain `java`
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("no program sources under src/main/scala/repro; run from the root of a checkout")
    if not spark_jars(SPARK_HOME):
        fail(f"no Spark distribution found (SPARK_HOME={SPARK_HOME!r})")
    r = subprocess.run(["make", "-s", "-C", HERE, f"OUT={BUILD}", f"JAVA={JAVA}",
                        f"SPARK_HOME={SPARK_HOME}"], stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def run_jvm(args, trace, deadline, extra=()):
    """Runs one workload in a fresh JVM; returns (digest, result dict)."""
    work = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}-{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [JAVA, "-Xmx3g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={work}", *OPENS,
           "-cp", os.path.join(BUILD, "classes") + os.pathsep + os.path.join(SPARK_HOME, "jars", "*"),
           "perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--work", work, *extra]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {DEADLINE_S} s")
    finally:
        for t in glob.glob(os.path.join(work, "trace-*.jsonl")):
            shutil.copy(t, os.path.join(BUILD, os.path.basename(t)))
        shutil.rmtree(work, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("digest "):
        fail(f"{args.workload} exited with code {r.returncode}")
    return lines[-2].split()[1], json.loads(lines[-1])


def untraced_run(args, deadline, reuse):
    """(digest, result) of the untraced run, kept for later traced runs; with
    `reuse`, one kept from this build stands in for a new run."""
    path = os.path.join(BUILD, "untraced", f"{args.workload}-{args.seed}.json")
    stamp = os.path.getmtime(STAMP)
    if reuse and os.path.exists(path):
        with open(path) as f:
            kept = json.load(f)
        if kept["stamp"] == stamp:
            return kept["digest"], kept["result"]
    digest, result = run_jvm(args, 0, deadline)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"stamp": stamp, "digest": digest, "result": result}, f)
    return digest, result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("offline_trmp", "online_targeting"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    build()
    deadline = time.monotonic() + DEADLINE_S
    digest, result = untraced_run(args, deadline, reuse=bool(args.trace))
    if args.trace:
        untraced = result["metrics"]
        key = "offline_run_s" if args.workload == "offline_trmp" else "request_p50_ms"
        ms = untraced[key]["value"] * (1000 if key.endswith("_s") else 1)
        _, result = run_jvm(args, 1, deadline, ("--untraced-ms", repr(ms), "--untraced-digest", digest))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
