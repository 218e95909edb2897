#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny sizes (`run.py --smoke`)
for one second, untraced and traced, and checks that the last stdout line
is the result object, that every named end-to-end (untraced) or per-layer
(traced) metric is printed with a number and the unit BENCHMARK.json
gives it and nothing else is, that every output matched its reference,
and that the provenance line carries its fields. Exits 1 on the first
violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROVENANCE_FIELDS = ("git_sha", "gcc", "emit_cflags", "ref_cflags", "nproc",
                     "omp_num_threads", "seed", "setup_reps",
                     "hardware_concurrency", "container_1core")


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def check(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                       timeout=600)
    what = f"{workload} --trace {trace}"
    if r.returncode != 0:
        fail(f"{what}: exit {r.returncode}\n{r.stderr[-2000:]}")
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{what}: {result['attempted']} attempted, "
             f"{result['failed']} failed\n" + "\n".join(lines[:-1]))
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"{what}: missing {sorted(set(expected) - set(got))}, "
             f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        value = got[name]
        if not isinstance(value.get("value"), (int, float)) or \
                isinstance(value.get("value"), bool):
            fail(f"{what}: {name} has no numeric value")
        if value.get("unit") != unit:
            fail(f"{what}: {name} unit {value.get('unit')!r}, want {unit!r}")
    prov = [l for l in lines if l.startswith("# provenance ")]
    if not prov:
        fail(f"{what}: no provenance line")
    fields = json.loads(prov[0][len("# provenance "):])
    missing = [f for f in PROVENANCE_FIELDS if f not in fields]
    if missing:
        fail(f"{what}: provenance lacks {missing}")
    print(f"selftest: ok {what}: {len(got)} metrics")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check(workload["name"], trace, spec)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
