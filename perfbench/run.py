#!/usr/bin/env python3
"""Repository benchmark: build the perfbench driver from this checkout's
sources, run one workload, check its outputs and print one JSON result line.

    python3 perfbench/run.py --workload scale_tiered --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. --trace 0 prints the end-to-end metrics
of BENCHMARK.json, --trace 1 its per-layer metrics. A run that fails any
check — an unfinished pool, a red campaign cell, a fingerprint that differs
from the one recorded in perfbench/workloads.json — prints "correct": false
with no metrics and exits 1. Build progress goes to stderr; the result is
the last line of stdout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources (src/) next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, "perfbench")


def load_json(name):
    with open(name) as f:
        return json.load(f)


def run_driver(binary, argv):
    """Run the driver; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        doc = None
    return proc.returncode, doc


def verdict(code, doc, expected_fingerprint, metric_names):
    """Turn the driver's output into the result line; returns (result, errors).

    Every check failure yields correct=false and an empty metrics object, so
    a broken run can never be read as a number."""
    errors = []
    if doc is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, [
            "driver exited %d without a result" % code]
    errors += doc.get("errors", [])
    if code != 0 and not errors:
        errors.append("driver exited %d" % code)
    if not doc.get("correct", False) and not errors:
        errors.append("driver reported an incorrect run")
    if expected_fingerprint is not None:
        got = doc.get("fingerprint", {})
        for key, want in expected_fingerprint.items():
            if got.get(key) != want:
                errors.append("fingerprint %s is %r, recorded %r" %
                              (key, got.get(key), want))
    metrics = doc.get("metrics", {})
    missing = [name for name in metric_names if name not in metrics]
    if missing and not errors:
        errors.append("metrics missing: " + ", ".join(missing))
    attempted = max(1, int(doc.get("attempted", 0)))
    failed = int(doc.get("failed", 0))
    if errors:
        return {"correct": False, "attempted": attempted,
                "failed": max(1, failed), "metrics": {}}, errors
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {name: metrics[name] for name in metric_names}}, errors


def run_workload(args):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    records = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    if args.workload not in records:
        sys.exit("perfbench: unknown workload %r" % args.workload)
    binary = build()
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    expected = records[args.workload]["fingerprints"].get(str(args.seed))
    code, doc = run_driver(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    result, errors = verdict(code, doc, expected, names)
    for error in errors:
        print("perfbench: FAIL " + error, file=sys.stderr)
    if doc is not None:
        print(json.dumps({"fingerprint": doc.get("fingerprint"),
                          "batches": doc.get("batches")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def self_test():
    """Provoke each failure the checks exist for, at tiny shapes, and make
    sure it comes out as a failed run with no metric values."""
    binary = build()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    tiny_pool = ["--workload", "scale_tiered", "--seed", "7", "--seconds", "1",
                 "--machines", "24", "--jobs", "96"]
    tiny_campaign = ["--workload", "chaos_campaign", "--seed", "1",
                     "--seconds", "1", "--plans", "8"]

    code, control = run_driver(binary, tiny_pool + ["--trace", "0"])
    cases = [
        ("tiny pool passes", verdict(code, control, None, e2e), True),
        ("tiny pool passes with its own fingerprint",
         verdict(code, control, (control or {}).get("fingerprint"), e2e), True),
        ("a drifted fingerprint fails",
         verdict(code, control, dict((control or {}).get("fingerprint", {}),
                                     **{"sim.events": -1}), e2e), False),
        ("tiny traced pool passes",
         verdict(*run_driver(binary, tiny_pool + ["--trace", "1"]), None, layers),
         True),
        ("an unfinished pool fails",
         verdict(*run_driver(binary, tiny_pool + ["--trace", "0",
                                                  "--limit-sec", "60"]),
                 None, e2e), False),
        ("tiny scoped campaign passes",
         verdict(*run_driver(binary, tiny_campaign + ["--trace", "0"]),
                 None, e2e), True),
        ("a red campaign cell fails",
         verdict(*run_driver(binary, tiny_campaign + ["--trace", "0",
                                                      "--discipline", "naive"]),
                 None, e2e), False),
    ]
    bad = 0
    for name, (result, errors), want_correct in cases:
        ok = result["correct"] == want_correct
        if not want_correct:
            ok = ok and result["metrics"] == {} and result["failed"] >= 1
        bad += not ok
        print("%-45s %s%s" % (name, "ok" if ok else "WRONG",
                              "" if want_correct else "  (" + "; ".join(errors)[:100] + ")"))
    print("self-test: %d of %d case(s) wrong" % (bad, len(cases)))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
