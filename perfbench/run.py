#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload detect_cpp --seed 1 --seconds 30 --trace 0

Builds perfbench_probe from the repository's sources on first use (a
Release build under .bench_build/), runs it, checks every output against
perfbench/reference.json, prints each metric by name with its unit, writes
the full result to perfbench/results/<set>/, and prints one JSON object as
the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The exit status is 0 when every
check passed, 1 when a check failed, and 2 when the benchmark could not
run (no source tree, build failure, probe crash); then no result is
printed.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PROBE = os.path.join(BUILD_DIR, "perfbench_probe")
SHIPPED_BACKEND = "graph"  # snapshot::default_backend() without the env var
# Set-ups per run, each in a fresh process: the measured run's own, and
# SETUP_SIDE set-up-only processes before it and as many after it.
SETUP_SIDE = 10


class BenchError(Exception):
    """The benchmark cannot run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---- build -----------------------------------------------------------------


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "fatomic", "CMakeLists.txt")):
        raise BenchError("no fatomic source tree next to perfbench/ "
                         "(expected src/fatomic)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_probe", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


# ---- provenance ------------------------------------------------------------


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_digest():
    """Content hash of the measured sources: identifies the code even in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("results", "__pycache__"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


# ---- probe -----------------------------------------------------------------


def run_probe(cmd, timeout):
    """Runs the probe once and returns its JSON document."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("probe timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("probe exited with status %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- checks ----------------------------------------------------------------


def check_reference(doc, reference, workload):
    """Compares the probe's observations with the committed reference.
    Returns (problems, failed operations)."""
    problems, failed = [], 0
    expected_apps = reference["workloads"].get(workload, [])
    observed = doc["apps"]
    if sorted(observed) != sorted(expected_apps):
        problems.append("apps run %s, reference expects %s"
                        % (sorted(observed), sorted(expected_apps)))
        failed += 1
    passes = doc["passes"]
    for name in sorted(set(observed) & set(expected_apps)):
        want = reference["apps"][name]
        got = observed[name]
        for key in sorted(set(want) | set(got)):
            if key == "remaining_nonatomic" and key not in got:
                continue  # detection-only workloads do not mask
            if got.get(key) != want.get(key):
                problems.append("%s: %s is %s, reference %s"
                                % (name, key, got.get(key), want.get(key)))
                failed += passes  # every pass repeated the first one's verdict
                break
    layer = doc["per_layer"]
    if layer.get("analyze.sources_s", 0) > 0:  # the workload ran the analyzer
        for key, metric in (("proven_methods", "analyze.proven_methods"),
                            ("partial_plans", "analyze.partial_plans")):
            if layer[metric] != reference["static"][key]:
                problems.append("%s is %s, reference %s"
                                % (metric, layer[metric], reference["static"][key]))
                failed += 1
    return problems, failed


def history_verdict(layer):
    """serve_storm: is a request's cost O(history)?  The journal grows by one
    entry per request, so linear growth of the per-tenth mean latency over
    the storm means every request pays for the whole history."""
    ys = [layer.get("serve.latency_tenth_%d_us" % i, 0.0) for i in range(10)]
    if ys[0] <= 0:
        return None
    xs = list(range(10))
    mx, my = sum(xs) / 10, sum(ys) / 10
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    slope = sxy / sxx
    r2 = sxy * sxy / (sxx * syy) if syy > 0 else 0.0
    growth = ys[-1] / ys[0]
    confirmed = growth > 1.5 and r2 > 0.9 and slope > 0
    return {
        "verdict": "confirmed" if confirmed else "refuted",
        "first_tenth_us": ys[0],
        "last_tenth_us": ys[-1],
        "growth": growth,
        "slope_us_per_tenth": slope,
        "r2": r2,
        "journal_kb_end": layer.get("serve.journal_kb_end", 0.0),
    }


# ---- output ----------------------------------------------------------------


def fmt(v):
    return "%.6g" % v


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="expected classifications (default: %(default)s)")
    ap.add_argument("--results", default="latest",
                    help="result set under perfbench/results/ to write into")
    args = ap.parse_args()

    build()
    with open(args.reference) as f:
        reference = json.load(f)

    results_dir = os.path.join(HERE, "results", args.results)
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-trace%d-seed%d" % (args.workload, args.trace, args.seed)
    probe = [PROBE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--subjects", os.path.join(ROOT, "src", "subjects")]
    setups = [run_probe(probe + ["--setup-only", "1"], 60)
              for _ in range(SETUP_SIDE)]
    doc = run_probe(probe + ["--spans-out",
                             os.path.join(results_dir, stem + ".spans.json")],
                    args.seconds * 2 + 120)
    setups.append({"setup_s": doc["end_to_end"]["setup_s"],
                   "per_layer": doc["per_layer"]})
    setups += [run_probe(probe + ["--setup-only", "1"], 60)
               for _ in range(SETUP_SIDE)]
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in doc["per_layer"]]
    if missing:
        raise BenchError("probe reported no value for " + ", ".join(missing))
    setup_samples = [s["setup_s"] for s in setups]
    doc["end_to_end"]["setup_s"] = statistics.median(setup_samples)
    for key in setups[0]["per_layer"]:
        doc["per_layer"][key] = statistics.median(
            s["per_layer"][key] for s in setups)

    problems, ref_failed = check_reference(doc, reference, args.workload)
    problems = doc["problems"] + problems
    attempted = doc["attempted"]
    failed = min(attempted, doc["failed"] + ref_failed)
    correct = not problems and failed == 0

    e2e, layer = doc["end_to_end"], doc["per_layer"]
    e2e["failed_share"] = failed / max(1, attempted)
    meta = dict(doc["meta"])
    env = meta.pop("backend_env")
    backend = meta["checkpoint_backend"]
    if env:
        meta["checkpoint_backend"] = "%s (FATOMIC_CHECKPOINT_BACKEND=%s; shipped default is %s)" % (
            backend, env, SHIPPED_BACKEND)
    else:
        meta["checkpoint_backend"] = "%s (shipped default)" % backend
    meta.update(git=git_describe(), source_digest=source_digest(),
                workload=args.workload, seed=args.seed, trace=args.trace,
                seconds=args.seconds, passes=doc["passes"],
                untraced_passes=doc["untraced_passes"])

    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for key in ("build_type", "checkpoint_backend", "effective_parallelism",
                "hardware_threads", "git", "source_digest"):
        print("meta %s = %s" % (key, meta[key]))
    notes = {
        "setup_s": "median of %d set-ups, each in a fresh process"
                   % len(setup_samples),
        "wall_s": "each operation's best of %d passes; cpu_s beside it"
                  % doc["untraced_passes"],
        "latency_p50_us": "n=%d operations" % doc["latency_samples"],
        "latency_p99_us": "n=%d operations" % doc["latency_samples"],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_share"] = "ratio"
    for m in spec["end_to_end"] + [{"name": "failed_share"}]:
        name = m["name"]
        note = notes.get(name, "")
        print("end_to_end %s = %s %s%s" % (name, fmt(e2e[name]), units[name],
                                           "  (%s)" % note if note else ""))
    if args.trace:
        for m in spec["per_layer"]:
            print("per_layer %s = %s %s" % (m["name"], fmt(layer[m["name"]]),
                                            m["unit"]))
    history = history_verdict(layer) if args.workload == "serve_storm" else None
    if history:
        print("o_history %s: mean latency %s us in the first tenth, %s us in the "
              "last (x%s, r2=%s), journal %s KiB at the end"
              % (history["verdict"], fmt(history["first_tenth_us"]),
                 fmt(history["last_tenth_us"]), fmt(history["growth"]),
                 fmt(history["r2"]), fmt(history["journal_kb_end"])))
    for p in problems:
        print("check FAILED: " + p)
    print("checks %s: %d of %d operations failed"
          % ("passed" if correct else "FAILED", failed, attempted))

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": (layer if args.trace else e2e)[m["name"]],
                           "unit": m["unit"]} for m in names}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump({"result": result, "meta": meta, "end_to_end": e2e,
                   "per_layer": layer, "o_history": history,
                   "problems": problems, "setup_samples_s": setup_samples,
                   "apps": doc["apps"]}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: " + str(e))
        sys.exit(2)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("perfbench: cannot run: %r" % (e,))
        sys.exit(2)
