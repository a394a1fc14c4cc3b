#!/usr/bin/env python3
"""Build and run one benchmark run of the Timing engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --print-digests

Run it from the root of the repository. The first call compiles the engine
sources (src/main/scala, without the Spark layer) together with
perfbench/src into $CARGO_TARGET_DIR/perfbench (default .bench_build) and
reuses the classes while no source changes. Each run is a fresh JVM with the
flags in JVM_FLAGS; the last line of standard output is the JSON result.
"""
import argparse
import glob
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")

# Fixed here, not inherited: heap, collector and JIT are part of the
# benchmark. The serial collector adds no GC threads beside the workers. The
# 512 MB young generation keeps collections rare: with 64 MB, one every
# ~80 ms stopped all three workers of the concurrent pass, whose throughput
# then swung between 8K and 20K edges/s from run to run.
JVM_FLAGS = [
    "-Xms1g", "-Xmx1g", "-Xmn512m",
    "-XX:+UseSerialGC",
    "-XX:CICompilerCount=2",
    "-XX:-UsePerfData",
    "-Xss8m",
    "-Dfile.encoding=UTF-8",
]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    env = dict(os.environ)
    for k in ("JAVA_TOOL_OPTIONS", "_JAVA_OPTIONS", "JDK_JAVA_OPTIONS", "CLASSPATH"):
        env.pop(k, None)
    return env


def engine_sources():
    """Main sources the engine needs: everything outside the Spark layer."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src/main/scala/**/*.scala"), recursive=True)):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if re.search(r"^package repro\.spark", text, re.M) or re.search(r"org\.apache|duckdb|java\.sql", text):
            continue
        out.append(path)
    return out


def scala_version():
    try:
        with open(os.path.join(ROOT, "build.sbt"), encoding="utf-8") as f:
            m = re.search(r'scalaVersion\s*:=\s*"(2\.13\.\d+)"', f.read())
            if m:
                return m.group(1)
    except OSError:
        pass
    return None


def scala_jars():
    """scala-compiler, -library and -reflect of one 2.13 version from the local caches."""
    roots = [os.environ.get("COURSIER_CACHE"), os.path.expanduser("~/.cache/coursier/v1"),
             os.path.expanduser("~/.ivy2"), os.path.expanduser("~/.m2/repository")]
    found = {}
    for r in filter(None, roots):
        for path in glob.glob(os.path.join(r, "**", "scala-*-2.13.*.jar"), recursive=True):
            m = re.search(r"scala-(compiler|library|reflect)-(2\.13\.\d+)\.jar$", path)
            if m:
                found.setdefault(m.group(2), {}).setdefault(m.group(1), path)
    complete = {v: j for v, j in found.items() if len(j) == 3}
    if not complete:
        die("no Scala 2.13 compiler found in the local caches")
    want = scala_version()
    v = want if want in complete else max(complete, key=lambda s: int(s.split(".")[2]))
    return complete[v]


def build():
    srcs = engine_sources()
    if not srcs:
        die("no engine sources under src/main/scala; run from the root of the repository")
    bench_srcs = sorted(glob.glob(os.path.join(HERE, "src/**/*.scala"), recursive=True))
    jars = scala_jars()
    h = hashlib.sha256()
    for p in srcs + bench_srcs:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    h.update(jars["compiler"].encode())
    stamp = h.hexdigest()
    classes = os.path.join(BUILD, "classes")
    stamp_file = os.path.join(BUILD, "stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return classes, jars
    os.makedirs(BUILD, exist_ok=True)
    if os.path.exists(stamp_file):
        os.remove(stamp_file)
    subprocess.run(["rm", "-rf", classes], check=True)
    os.makedirs(classes)
    cp = os.pathsep.join([jars["compiler"], jars["library"], jars["reflect"]])
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", cp, "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", classes] + srcs + bench_srcs
    print(f"perfbench: compiling {len(srcs)} engine and {len(bench_srcs)} benchmark sources", file=sys.stderr)
    r = subprocess.run(cmd, env=clean_env(), timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        die("compilation failed")
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return classes, jars


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--print-digests", action="store_true")
    a = ap.parse_args()
    if not a.print_digests and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not a.print_digests and not 1 <= a.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")

    classes, jars = build()
    cmd = ["java"] + JVM_FLAGS + ["-cp", os.pathsep.join([classes, jars["library"]]), "repro.perfbench.Main"]
    if a.print_digests:
        cmd.append("--print-digests")
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed), "--millis", str(a.seconds * 1000),
                "--trace", str(a.trace), "--digests", os.path.join(HERE, "digests.txt"),
                "--out", os.path.join(BUILD, "traces")]
    proc = subprocess.Popen(cmd, env=clean_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"run did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = out.rstrip("\n").split("\n") if out else []
    sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
    if proc.returncode != 0:
        sys.stdout.write((lines[-1] if lines else "") + "\n")
        die(f"run failed with exit code {proc.returncode}", proc.returncode or 1)
    if a.print_digests:
        sys.stdout.write(lines[-1] + "\n")
    elif not lines:
        die("run printed nothing")
    else:
        print(json.dumps(json.loads(lines[-1])))


if __name__ == "__main__":
    main()
