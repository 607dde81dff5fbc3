#!/usr/bin/env python3
"""DUST query benchmark: build the program from source, then run one workload.

Run from the root of a checkout:

    python3 dustbench/run.py --workload lake_warm --seed 1 --seconds 22 --trace 0

The first run compiles the repository and the benchmark with sbt
and caches the classpath under dustbench/target; later runs reuse it until a
source or build file changes. The last line of standard output is the result
object; traced runs also write their spans as JSON lines under
dustbench/target/spans.
"""
import argparse
import os
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
# Scratch files of sbt, the JVM and Spark stay inside the checkout.
TMP = os.path.join(TARGET, "tmp")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JVM_OPTS = [
    "-Xms2g", "-Xmx2g",
    "-XX:-UsePerfData",
    f"-Djava.io.tmpdir={TMP}",
    f"-Dspark.local.dir={TMP}",
    "-Dspark.ui.enabled=false",
    "-Dspark.driver.host=127.0.0.1",
]


def sources():
    """Files whose change makes the cached build stale."""
    for top in ("src/main", "jobs", os.path.join(os.path.basename(BENCH), "src")):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            for f in files:
                yield os.path.join(d, f)
    for f in ("build.sbt", "project/build.properties"):
        yield os.path.join(ROOT, f)
        yield os.path.join(BENCH, f)


def run_group(cmd, cwd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"dustbench: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def classpath():
    if not os.path.isfile(os.path.join(ROOT, "build.sbt")):
        sys.exit("dustbench: no build.sbt next to the benchmark; run it from a checkout of the repository")
    if os.path.isfile(CLASSPATH):
        stamp = os.path.getmtime(CLASSPATH)
        if all(not os.path.exists(f) or os.path.getmtime(f) <= stamp for f in sources()):
            with open(CLASSPATH) as fh:
                cp = fh.read().strip()
            if all(os.path.exists(p) for p in cp.split(os.pathsep)):
                return cp
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", f"-Djava.io.tmpdir={TMP}",
         "compile", "export Runtime/fullClasspath"],
        BENCH, BUILD_TIMEOUT_S, subprocess.PIPE)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        sys.exit(f"dustbench: build failed (sbt exit {code})")
    cp = lines[-1].strip()
    with open(CLASSPATH, "w") as fh:
        fh.write(cp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    os.makedirs(TMP, exist_ok=True)
    cp = classpath()
    cmd = ["java", *JVM_OPTS, "-cp", cp, "dustbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--spans-dir", os.path.join(TARGET, "spans")]
    code, out = run_group(cmd, ROOT, RUN_TIMEOUT_S, subprocess.PIPE)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
