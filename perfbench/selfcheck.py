#!/usr/bin/env python3
"""Self-check of the journey benchmark.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  For each workload it makes one
short run (one pass, --seconds 1) untraced and one traced, and asserts
that the result line is well formed, every operation passed its checks,
every metric BENCHMARK.json names is reported with its unit, and every
journey metric of the workload is printed by name with its unit.  It
then runs each workload with --inject-fault, which perturbs one output,
and asserts the checks catch it (failed > 0, correct false).  Last, it
runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/ and asserts it fails without printing a result.  Exits 1 on
the first failed assertion.
"""

import json
import math
import os
import shutil
import subprocess
import sys

# The journey metrics each workload prints by name (report lines).
JOURNEY = {
    "validate": [("workload_insns_per_s", "insns/s"), ("interp_insns_per_s", "insns/s"),
                 ("predict_error_pct", "%")],
    "offline": [("store_write_words_per_s", "words/s"), ("analyze_words_per_s", "words/s"),
                ("sweep_words_per_s", "words/s")],
    "serve_ingest": [("ingest_words_per_s", "words/s"), ("stream_p50_s", "s"),
                     ("stream_p90_s", "s"), ("streams_sampled", "count")],
}
COMMON = [("failed_ratio", "ratio")]


def fail(msg):
    print("selfcheck FAILED: " + msg)
    sys.exit(1)


def run(bench, workload, trace, *extra, cwd="."):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=900)
    return p


def result(p, what):
    if p.returncode != 0:
        fail("%s exited %d:\n%s" % (what, p.returncode, p.stderr[-2000:]))
    lines = p.stdout.strip().splitlines()
    r = json.loads(lines[-1])
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (what, sorted(r)))
    if not (isinstance(r["attempted"], int) and r["attempted"] >= 1
            and isinstance(r["failed"], int)):
        fail("%s: attempted/failed malformed" % what)
    return r, p.stdout


def check_metrics(r, declared, what, positive):
    got = r["metrics"]
    if sorted(got) != sorted(m["name"] for m in declared):
        fail("%s: metric names differ from BENCHMARK.json: %s" % (what, sorted(got)))
    for m in declared:
        v = got[m["name"]]
        if v.get("unit") != m["unit"]:
            fail("%s: %s has unit %r, declared %r" % (what, m["name"], v.get("unit"), m["unit"]))
        if not (isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])):
            fail("%s: %s value %r" % (what, m["name"], v.get("value")))
        if positive and v["value"] <= 0:
            fail("%s: end-to-end metric %s is %r" % (what, m["name"], v["value"]))


def check_report(text, names, what):
    for name, unit in names:
        if not any(l.split()[:1] == [name] and l.split()[-1:] == [unit]
                   for l in text.splitlines()):
            fail("%s: report lacks %s with unit %s" % (what, name, unit))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in [x["name"] for x in bench["workloads"]]:
        r, out = result(run(bench, w, 0), w + " untraced")
        if not r["correct"] or r["failed"]:
            fail("%s untraced: %d of %d operations failed" % (w, r["failed"], r["attempted"]))
        check_metrics(r, bench["end_to_end"], w + " untraced", positive=True)
        check_report(out, COMMON + JOURNEY[w], w + " untraced")
        r, out = result(run(bench, w, 1), w + " traced")
        if not r["correct"] or r["failed"]:
            fail("%s traced: %d of %d operations failed" % (w, r["failed"], r["attempted"]))
        check_metrics(r, bench["per_layer"], w + " traced", positive=False)
        unattributed = r["metrics"]["bench.unattributed_pct"]["value"]
        if unattributed > 5.0:
            fail("%s traced: layer spans leave %.2f%% of the wall unattributed"
                 % (w, unattributed))
        r, _ = result(run(bench, w, 0, "--inject-fault"), w + " with an injected fault")
        if r["correct"] or r["failed"] == 0:
            fail("%s: an injected wrong output went unnoticed" % w)
        print("selfcheck: %s ok" % w, flush=True)

    bare = os.path.join(".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    p = run(bench, bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    if p.returncode == 0 or p.stdout.strip():
        fail("a directory without the sources did not fail cleanly")
    print("selfcheck: bare directory fails cleanly (exit %d)" % p.returncode)
    print("selfcheck: all ok")


if __name__ == "__main__":
    main()
