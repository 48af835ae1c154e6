#!/usr/bin/env python3
"""Build and run gapplydb's benchmark.

Run one workload (from the root of the repository):

    python3 perfbench/run.py --workload publish --seed 1 --seconds 15 --trace 0

Every argument is passed to the benchmark program (perfbench/*.go),
which this script first builds from source into .bench_build/. The
build writes only inside .bench_build/ (Go's build cache included).

Two modes are handled here rather than in the program:

    python3 perfbench/run.py --steady --workload serve --runs 5
        runs the workload --runs times with seeds 1..N and prints, for each
        end-to-end metric, the median and quartiles beside the bound
        BENCHMARK.json gives it.

    python3 perfbench/run.py --regen
        rewrites perfbench/digests/ (see README.md).
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
STAMP = os.path.join(BUILD, "perfbench.stamp")


def source_digest():
    """Hash every Go source and module file the benchmark is built from."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(top, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build():
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no gapplydb sources at %s; run from a checkout of the repository" % ROOT)
    want = source_digest()
    if os.path.exists(BINARY) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read() == want:
                return
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local", GOTELEMETRY="off", CGO_ENABLED="0")
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    with open(STAMP, "w") as f:
        f.write(want)


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def steady(args):
    """Run one workload --runs times and report each metric's spread."""
    runs, first, rest = 5, 1, []
    it = iter(args)
    for a in it:
        if a == "--runs":
            runs = int(next(it))
        elif a == "--first-seed":
            first = int(next(it))
        else:
            rest.append(a)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if "--seconds" not in rest:
        rest += ["--seconds", str(bench["run_seconds"])]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(first, first + runs):
        proc = subprocess.run([BINARY, "--seed", str(seed), "--trace", "0"] + rest, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        res = last_json(proc.stdout) if proc.returncode == 0 else None
        if res is None or not res["correct"]:
            sys.exit("perfbench: seed %d failed: %s" % (seed, res))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))),
              flush=True)
    print("%-18s %12s %12s %12s %8s %8s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    worst = 0.0
    for name in sorted(values):
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            worst = max(worst, spread / bound)
            flag = " ok" if spread < bound / 3 else (" wide" if spread < bound else " OVER")
        print("%-18s %12.5g %12.5g %12.5g %8.3f %8s%s" % (name, q1, med, q3, spread,
                                                          "-" if bound is None else bound, flag))
    print("widest spread / bound: %.2f" % worst)


def main():
    args = sys.argv[1:]
    build()
    if "--steady" in args:
        args.remove("--steady")
        steady(args)
        return
    proc = subprocess.run([BINARY] + args, cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
