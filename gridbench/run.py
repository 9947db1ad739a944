#!/usr/bin/env python3
"""Grid benchmark runner.

Run from the repository root:

    python3 gridbench/run.py --workload cell-fit --seed 1 --seconds 20 --trace 0

Builds the benchmark (and with it the program, from source) when the sources
changed since the last build, then runs one measurement in a fresh JVM. The
JVM prints a record line and, as the last line of stdout, the result object.
Build output and scratch files stay under `.bench_build/` in the checkout.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "gridbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run_child(cmd, timeout, **kw):
    """Run a child process to completion; a timeout or a SIGTERM/SIGINT to
    this process kills it and waits for it, so no child outlives the run."""
    proc = subprocess.Popen(cmd, **kw)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def fail(msg):
    print(f"gridbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads from the checkout, in a stable order."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "project"),
             os.path.join(HERE, "src"), os.path.join(HERE, "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt"),
             os.path.join(HERE, "jvm.options")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
            files += [os.path.join(d, n) for n in sorted(names)]
    files += [os.path.join(ROOT, "project", "build.properties"),
              os.path.join(HERE, "project", "build.properties")]
    return [f for f in files if os.path.isfile(f)]


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile the program and the benchmark, run the benchmark's unit tests,
    and save the runtime classpath. Skipped when the sources are unchanged."""
    os.makedirs(OUT, exist_ok=True)
    stamp_file = os.path.join(OUT, "stamp")
    cp_file = os.path.join(OUT, "classpath")
    want = stamp()
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as fh:
            if fh.read() == want:
                with open(cp_file) as fh:
                    return fh.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           "test", "export Runtime/fullClasspath"]
    code, out = run_child(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env,
                          stdout=subprocess.PIPE, text=True)
    sys.stderr.write(out)
    if code != 0:
        fail(f"build failed with exit code {code}")
    lines = [l for l in out.splitlines() if l and not l.startswith("[")]
    if not lines:
        fail("build printed no classpath")
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(want)
    return cp


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        fail("the program's sources (build.sbt, src/main/scala) are not in this checkout")

    cp = build()
    work = os.path.join(OUT, "work", args.workload)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(os.path.join(HERE, "jvm.options")) as fh:
        jvm_options = [l.strip() for l in fh if l.strip()]
    cmd = (["java", f"-Djava.io.tmpdir={tmp}"] + jvm_options
           + ["-cp", cp, "repro.gridbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace,
              "--work-dir", work, "--git-sha", git_sha()])
    code, _ = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT)
    sys.exit(code)


if __name__ == "__main__":
    main()
