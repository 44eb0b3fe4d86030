#!/usr/bin/env python3
"""Tiny-size self-test of paperbench.

    python3 paperbench/selftest.py

Builds the benchmark through run.py, then runs every workload named in
BENCHMARK.json at --size tiny: twice end to end with the same seed and once
traced. It checks that

  * every run exits 0 and reports correct, with no failed check;
  * the end-to-end run emits exactly BENCHMARK.json's end_to_end metrics and
    the traced run exactly its per_layer metrics, each in its declared unit;
  * rounds and messages repeat exactly across the runs and across every
    t1/t4 (and traced/untraced) pass inside them;
  * the traced run's buckets add up to its traced wall: span self times
    (algorithm, primitive, router) + rounds outside spans + call time
    outside rounds, and engine stage + merge + deliver + unattributed;
  * bad arguments exit non-zero without printing a result.

Exits 0 when every check holds and 1 otherwise.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402  (run.py sits next to this file)

PASS_RE = re.compile(r"^pass (\w+) threads=(\d+) rounds=(\d+) messages=(\d+) digest=(\w+)")
SEED = 7

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)


def bench(*args):
    proc = subprocess.run([str(run.BINARY), *args], capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def run_workload(name, trace):
    code, lines, err = bench("--workload", name, "--seed", str(SEED), "--seconds", "0.5",
                             "--trace", str(trace), "--size", "tiny")
    check(code == 0, f"{name} trace={trace}: exit code {code}: {err.strip()}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{name}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{name} trace={trace}: correct={result['correct']} failed={result['failed']}")
    fingerprint = json.loads(lines[0])
    check(fingerprint.get("seed") == SEED and "fingerprint" in fingerprint,
          f"{name}: first line does not record the seed and fingerprint")
    passes = [PASS_RE.match(l).groups() for l in lines if PASS_RE.match(l)]
    check(len(passes) >= 2 and {p[1] for p in passes} >= {"1", "4"},
          f"{name} trace={trace}: expected t1 and t4 passes, got {passes}")
    return result["metrics"], passes


def expect_metrics(name, got, declared):
    want = {m["name"]: m["unit"] for m in declared}
    check(set(got) == set(want),
          f"{name}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for key, unit in want.items():
        if key in got:
            check(got[key]["unit"] == unit, f"{name}: {key} unit {got[key]['unit']} != {unit}")
            check(isinstance(got[key]["value"], (int, float)), f"{name}: {key} is not a number")


def close(a, b):
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run.build()
    for w in spec["workloads"]:
        name = w["name"]
        e2e_a, passes_a = run_workload(name, 0)
        e2e_b, passes_b = run_workload(name, 0)
        layer, passes_t = run_workload(name, 1)
        expect_metrics(name, e2e_a, spec["end_to_end"])
        expect_metrics(name, layer, spec["per_layer"])

        counts = {(p[2], p[3], p[4]) for p in passes_a + passes_b + passes_t}
        check(len(counts) == 1, f"{name}: rounds/messages/digest differ across passes: {counts}")
        rounds, messages, _ = next(iter(counts))
        check(e2e_a["messages"]["value"] == int(messages), f"{name}: messages metric != pass line")
        check(layer["rounds"]["value"] == int(rounds), f"{name}: rounds metric != pass line")
        check(e2e_a["messages"] == e2e_b["messages"], f"{name}: messages differ between runs")

        v = {k: m["value"] for k, m in layer.items()}
        spans = (v["core.self_ms"] + v["overlay.route.self_ms"] +
                 sum(x for k, x in v.items() if k.startswith("prim.") and k.endswith(".self_ms")))
        check(close(spans + v["obs.unspanned_ms"] + v["obs.outside_rounds_ms"],
                    v["obs.traced_wall_ms"]),
              f"{name}: span self times + unspanned + outside rounds != traced wall")
        engine = sum(v["engine." + k] for k in ("stage_ms", "merge_ms", "deliver_ms",
                                                  "unattributed_ms"))
        check(close(engine, v["obs.traced_wall_ms"]), f"{name}: engine splits != traced wall")
        check(v["obs.trace_overhead_ratio"] > 0, f"{name}: no trace overhead ratio")
        print(f"{name}: rounds={rounds} messages={messages} ok")

    code, lines, _ = bench("--workload", "no_such_workload", "--seed", "1", "--seconds", "1",
                           "--trace", "0")
    check(code != 0 and not any(l.startswith('{"correct"') for l in lines),
          "an unknown workload must fail without a result")

    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
