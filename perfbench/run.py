#!/usr/bin/env python3
"""End-to-end benchmark of what purecc emits.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds purecc and the layer probe from the checkout's sources, runs purecc
on the workload's C programs, compiles the output with `gcc -O2 -fopenmp`
and runs it at 1 and nproc threads, one program at a time (a closed loop
with one client). Every run's stdout is compared byte-for-byte with the
original program compiled serially as `gcc -O2 -Dpure=`.

--trace 0 prints the end-to-end metrics of an untraced pass; --trace 1
prints the per-layer metrics of a separate traced pass: compile-side spans
from the layer probe, run-side counters from purecc --instrument
(PUREC_TRACE) and PUREC_MEMO_STATS. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A provenance line
(`# provenance {...}`) precedes it.

Workloads (WORKLOADS.md gives why each was chosen and what it predicts):
  paper_apps      the paper's four applications, pluto and sica, tiled
  region_nests    region-SCoP shapes run for thousands of short regions
  memo_reuse      a pure call per element, --memoize vs not, hot/cold keys
  compile_corpus  purecc over seeded synthetic units, every e2e fixture and
                  assets/c listing in 8 configs, each compiled twice; plus
                  the differential set and the known-defect reproducers

Known-defect reproducers (compile_corpus) are reported on their own line
and in the defects.* layer metrics; they are not operations of the
workload, whose `failed` count covers only programs the chain is expected
to get right.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAMS = os.path.join(HERE, "programs")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PURECC = os.path.join(BUILD, "purecc")
PROBE = os.path.join(BUILD, "layerprobe")

NPROC = len(os.sched_getaffinity(0))
EMIT_CFLAGS = ["-O2", "-fopenmp"]
REF_CFLAGS = ["-O2", "-Dpure="]
SETUP_REPS = 3          # set-up is repeated; setup_s is the median
SLOW_PASS_EVERY = 4     # 1-thread and reference passes every Nth iteration
DEFECT_RUNS = 5         # runs of each known-defect reproducer per benchmark run
RUN_TIMEOUT = 60
TOOL_TIMEOUT = 120
TRACE_RUNS = 3          # traced/untraced alternations per program (minimum)
WARM_UP_S = 0.5         # untimed nproc runs before compile_corpus's run phase
# libgomp's default wait policy (spin, then sleep) showed a bimodal, up to
# 5x slowdown of long regions on shared multi-core VMs; `active` was steady
# there and is as fast as the default on short regions. `passive` makes
# every region launch a futex wake-up.
RUN_ENV = {"OMP_WAIT_POLICY": "active"}

# purecc flags of the 8 compile_corpus configs (mode x tile x inline); every
# config also infers purity, memoizes and writes the JSON report.
CORPUS_CONFIGS = [
    [*mode, *tile, *inline]
    for mode in (["--mode", "pluto"], ["--mode", "sica"])
    for tile in (["--tile", "32"], ["--tile", "0"])
    for inline in ([], ["--inline-pure"])
]
CORPUS_COMMON = ["--infer-pure", "--memoize"]


class Build:
    """One emitted binary: a C source through purecc with `flags`."""

    def __init__(self, key, source, flags=()):
        self.key = key
        self.source = source
        self.flags = list(flags)


class Run:
    """One timed program invocation: emitted binary `build`, compared with
    the serial reference of the same source on the same arguments."""

    def __init__(self, name, build, args):
        self.name = name
        self.build = build
        self.args = [str(a) for a in args]


class Workload:
    def __init__(self, name, builds, runs, defects=(), corpus_units=()):
        self.name = name
        self.builds = builds
        self.runs = runs
        self.defects = list(defects)       # Runs of known-defect builds
        self.corpus_units = list(corpus_units)


def prog(*parts):
    return os.path.join(PROGRAMS, *parts)


def make_workload(name, seed, smoke=False):
    """The workload's builds and runs. `smoke` shrinks every input to a
    tiny size, for the self-test."""
    s = seed % 1000

    def size(full, tiny):
        return tiny if smoke else full

    paper = [("matmul", [s, size(320, 32)]),
             ("heat", [s, size(512, 32), size(20, 2)]),
             ("satellite", [s, 16, size(262144, 1024), 1]),
             ("ell", [s, size(131072, 256), 16, size(3, 1)])]
    if name == "paper_apps":
        builds, runs = [], []
        for app, args in paper:
            for mode in ("pluto", "sica"):
                b = Build(f"{app}.{mode}", prog("paper_apps", app + ".c"),
                          ["--mode", mode, "--tile", "32"])
                builds.append(b)
                runs.append(Run(b.key, b, args))
        return Workload(name, builds, runs)
    if name == "region_nests":
        shapes = [("guarded_update", 8192), ("imperfect_nest", 2048),
                  ("triangular", 128), ("fission_split", 8192),
                  ("fused_siblings", 8192), ("private_tmp", 1024),
                  ("dot_reduce", 16384), ("guarded_reduce", 128),
                  ("disjunctive_guard", 8192), ("heat_small", 128)]
        builds, runs = [], []
        for shape, n in shapes:
            flags = (["--infer-pure", "--fp-reductions"]
                     if shape == "dot_reduce" else [])
            b = Build(shape, prog("region_nests", shape + ".c"), flags)
            builds.append(b)
            runs.append(Run(shape, b, [s, size(n, 64), size(1000, 5)]))
        return Workload(name, builds, runs)
    if name == "memo_reuse":
        src = prog("memo_reuse", "tabulate.c")
        memo = Build("memoized", src, ["--memoize"])
        plain = Build("unmemoized", src, [])
        runs = []
        for draw, keys in (("hot", 32), ("cold", 1 << 22)):
            for b in (memo, plain):
                runs.append(Run(f"{b.key}.{draw}", b,
                                [s, size(65536, 1024), keys, size(40, 2)]))
        return Workload(name, [memo, plain], runs)
    if name == "compile_corpus":
        # The timed differential set: the paper kernels in the default
        # config. The e2e fixture programs run for a millisecond or two,
        # which would time OpenMP start-up alone.
        builds, runs, defects = [], [], []
        for app, args in paper:
            b = Build(app, prog("paper_apps", app + ".c"))
            builds.append(b)
            runs.append(Run(app, b, args))
        for defect in ("listing6_alias", "matmul_split_init", "fusion_rank",
                       "fusion_row_call"):
            b = Build("defect." + defect, prog("defects", defect + ".c"))
            builds.append(b)
            defects.append(Run(defect, b, [s, 256]))
        units = (corpus.synthetic_units(seed, functions=size(130, 10)) +
                 corpus.fixture_units(ROOT))
        return Workload(name, builds, runs, defects, units)
    raise SystemExit(f"unknown workload '{name}'")


# --- process helpers ----------------------------------------------------------


def run_tool(cmd, timeout=TOOL_TIMEOUT, env=None):
    """Runs a tool to completion; returns (exit code, seconds, peak RSS KiB,
    stderr). A tool that outlives `timeout` is killed (exit code None)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, env=env)
    killed = threading.Event()

    def kill():
        killed.set()
        p.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        err = p.stderr.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stderr.close()
    seconds = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else p.returncode
    return code, seconds, usage.ru_maxrss, err.decode(errors="replace")


def run_program(binary, args, threads, extra_env=None):
    """Runs one program; returns (ok, stdout, seconds). ok is False on a
    crash, a non-zero exit or a timeout."""
    env = dict(os.environ, **RUN_ENV)
    env["OMP_NUM_THREADS"] = str(threads)
    if extra_env:
        env.update(extra_env)
    t0 = time.perf_counter()
    try:
        r = subprocess.run([binary, *args], env=env, capture_output=True,
                           timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, b"", time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    return r.returncode == 0, r.stdout, seconds


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The highest percentile of `xs` with at least ten samples beyond it:
    (value, percentile, sample count)."""
    if not xs:
        return 0.0, 0.0, 0
    s = sorted(xs)
    n = len(s)
    idx = max(0, n - 11)
    return s[idx], 100.0 * (idx + 1) / n, n


def geomean(xs):
    xs = [x for x in xs if x > 0]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


class CompileSamples:
    """purecc process wall times, one per run, grouped by job (a unit and
    its flags)."""

    def __init__(self):
        self.ms = []
        self.by_job = {}
        self.lines = {}
        self.rss_kb = []    # peak RSS of the runs on the largest unit

    def add(self, job, lines, seconds, rss_kb, largest):
        self.ms.append(seconds * 1000.0)
        self.by_job.setdefault(job, []).append(seconds)
        self.lines[job] = lines
        if largest:
            self.rss_kb.append(rss_kb)

    def metrics(self):
        """Per-run p50 and tail; kLOC/s as one pass's input lines over the
        sum of each job's median time; median peak RSS."""
        t, pct, n = tail(self.ms)
        seconds = sum(median(v) for v in self.by_job.values())
        return {
            "compile_p50_ms": (median(self.ms), "ms"),
            "compile_tail_ms": (t, "ms"),
            "compile_kloc_per_s": (sum(self.lines.values()) / 1000.0 / seconds
                                   if seconds else 0.0, "kLOC/s"),
            "compiler_peak_rss_mb": (median(self.rss_kb) / 1024.0, "MB"),
        }, (f"compile_tail_ms is p{pct:.0f} of {n} compile pairs (the faster "
            "run of each)")


def line_count(path):
    with open(path) as f:
        return f.read().count("\n") + 1


# --- build --------------------------------------------------------------------


def build_tools():
    """Configures and builds purecc + layerprobe from the checkout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no compiler sources under "
                         f"{os.path.join(ROOT, 'src')}")
    # The build, gcc and the programs keep their temporary files inside
    # the checkout.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    log = os.path.join(BUILD, "build.log")
    cmds = [["cmake", "--build", BUILD, "-j", str(NPROC)]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log, "w") as out:
        for cmd in cmds:
            r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                               timeout=840)
            if r.returncode != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed")


# --- set-up -------------------------------------------------------------------


class Setup:
    """Sources, emitted binaries, references and set-up times."""

    def __init__(self, work):
        self.work = work
        self.binaries = {}      # build key -> emitted binary
        self.refs = {}          # source path -> reference binary
        self.sources = {}       # build key -> C source path
        self.purecc_s = []      # per rep
        self.gcc_s = []         # per rep
        self.total_s = []       # per rep
        self.emitted_bytes = 0
        self.first = {}         # build key -> emitted C of the first compile
        self.largest = None     # build key of the largest source
        self.failures = []


def compile_pair(cmd, outs):
    """Runs purecc `cmd` twice, back to back. Returns the faster run's
    seconds (the compile-time sample: a host hiccup rarely hits both), the
    larger peak RSS, and per run (exit code, contents of `outs`)."""
    best, peak, runs = None, 0, []
    for _ in range(2):
        for path in outs:
            if os.path.exists(path):
                os.remove(path)
        code, secs, rss, _ = run_tool(cmd)
        best = secs if best is None else min(best, secs)
        peak = max(peak, rss)
        files = None
        if code == 0:
            files = []
            for path in outs:
                with open(path, "rb") as f:
                    files.append(f.read())
        runs.append((code, files))
    return best, peak, runs


def recompile(build, st, samples, tally):
    """A timed compile pair on a build of a run workload; both runs must
    reproduce the set-up's emitted C byte for byte."""
    out_c = os.path.join(st.work, "recompile.out.c")
    src = st.sources[build.key]
    secs, rss, runs = compile_pair([PURECC, *build.flags, "-o", out_c, src],
                                   [out_c])
    samples.add(build.key, line_count(src), secs, rss, build.key == st.largest)
    for code, files in runs:
        tally.check(code == 0 and files[0] == st.first[build.key],
                    f"purecc {build.key}: a recompile differs from set-up")


def gcc(cmd_flags, source, out):
    return run_tool(["gcc", *cmd_flags, "-o", out, source, "-lm"])


def setup(workload, work, instrument=False):
    st = Setup(work)
    builds = workload.builds
    sources = {b.key: b.source for b in builds}
    st.sources = sources
    largest = max(builds, key=lambda b: os.path.getsize(sources[b.key])).key
    st.largest = largest
    ref_sources = sorted(set(sources.values()))
    first = st.first
    for rep in range(SETUP_REPS):
        purecc_s = gcc_s = 0.0
        for b in builds:
            src = sources[b.key]
            out_c = os.path.join(work, f"{b.key}.out.c")
            code, secs, _, err = run_tool([PURECC, *b.flags, "-o", out_c, src])
            purecc_s += secs
            if code != 0:
                st.failures.append(f"purecc {b.key}: exit {code}: {err[-300:]}")
                continue
            with open(out_c, "rb") as f:
                text = f.read()
            if rep == 0:
                first[b.key] = text
                st.emitted_bytes += len(text)
            elif text != first[b.key]:
                st.failures.append(f"purecc {b.key}: output differs between "
                                   "two compiles")
            binary = os.path.join(work, b.key + ".bin")
            code, secs, _, err = gcc(EMIT_CFLAGS, out_c, binary)
            gcc_s += secs
            if code != 0:
                st.failures.append(f"gcc {b.key}: {err[-300:]}")
            st.binaries[b.key] = binary
        for i, src in enumerate(ref_sources):
            binary = os.path.join(work, f"ref{i}.bin")
            code, secs, _, err = gcc(REF_CFLAGS, src, binary)
            gcc_s += secs
            if code != 0:
                st.failures.append(f"gcc -Dpure= {src}: {err[-300:]}")
            st.refs[src] = binary
        st.purecc_s.append(purecc_s)
        st.gcc_s.append(gcc_s)
        st.total_s.append(purecc_s + gcc_s)
    if instrument:
        st.instrumented = {}
        for b in builds:
            out_c = os.path.join(work, f"{b.key}.instr.c")
            code, _, _, err = run_tool([PURECC, *b.flags, "--instrument",
                                        "-o", out_c, sources[b.key]])
            binary = os.path.join(work, b.key + ".instr.bin")
            if code == 0:
                code, _, _, err = gcc(EMIT_CFLAGS, out_c, binary)
            if code != 0:
                st.failures.append(f"instrumented {b.key}: {err[-300:]}")
            st.instrumented[b.key] = binary
    return st


# --- the differential loop ----------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


class RunSamples:
    def __init__(self, runs):
        self.nproc = {r.name: [] for r in runs}
        self.one = {r.name: [] for r in runs}
        self.ref = {r.name: [] for r in runs}


def reference_key(st, run):
    return (st.sources[run.build.key], tuple(run.args))


def reference_outputs(workload, st, tally):
    """Runs every reference once; its stdout is the expected output."""
    expected = {}
    for run in workload.runs + workload.defects:
        key = reference_key(st, run)
        if key in expected:
            continue
        ok, out, _ = run_program(st.refs[key[0]], run.args, 1)
        tally.check(ok, f"reference {run.name} failed")
        expected[key] = out
    return expected


def one_iteration(workload, st, expected, samples, tally, slow):
    # An untimed warm-up run first: after a single-threaded phase (purecc,
    # the 1-thread and reference passes) the idle vCPUs of a shared VM can
    # take tens of milliseconds to come back, a cost a client running
    # programs back to back does not pay.
    warm = workload.runs[0]
    run_program(st.binaries[warm.build.key], warm.args, NPROC)
    for run in workload.runs:
        ok, out, secs = run_program(st.binaries[run.build.key], run.args, NPROC)
        tally.check(ok and out == expected[reference_key(st, run)],
                    f"{run.name} at {NPROC} threads differs from the reference")
        samples.nproc[run.name].append(secs)
    if not slow:
        return
    for run in workload.runs:
        ok, out, secs = run_program(st.binaries[run.build.key], run.args, 1)
        tally.check(ok and out == expected[reference_key(st, run)],
                    f"{run.name} at 1 thread differs from the reference")
        samples.one[run.name].append(secs)
        key = reference_key(st, run)
        ok, out, secs = run_program(st.refs[key[0]], run.args, 1)
        tally.check(ok and out == expected[key],
                    f"reference {run.name} is not deterministic")
        samples.ref[run.name].append(secs)


def run_defects(workload, st, expected):
    """Each reproducer DEFECT_RUNS times at nproc: {name: failed runs}."""
    counts = {}
    for run in workload.defects:
        bad = 0
        for _ in range(DEFECT_RUNS):
            ok, out, _ = run_program(st.binaries[run.build.key], run.args, NPROC)
            if not ok or out != expected[reference_key(st, run)]:
                bad += 1
        counts[run.name] = bad
    return counts


# --- compile corpus -----------------------------------------------------------


def write_units(workload, work):
    """The corpus units as files: [(unit, path)]."""
    units = []
    for i, unit in enumerate(workload.corpus_units):
        path = os.path.join(work, f"unit{i}.c")
        with open(path, "w") as f:
            f.write(unit.text)
        units.append((unit, path))
    return units


def corpus_jobs(workload, work):
    return [(unit, path, c, flags)
            for unit, path in write_units(workload, work)
            for c, flags in enumerate(CORPUS_CONFIGS)]


def compile_job(job, work, samples, tally, largest):
    """A timed compile pair on one (unit, config). Each verdict must be the
    one the fixture table expects, and the two emitted files and reports
    must be byte-identical. Returns the size of the emitted C."""
    unit, path, c, flags = job
    expect_ok = unit.expects_ok("--inline-pure" in flags)
    out_c = os.path.join(work, "job.c")
    report = os.path.join(work, "job.json")
    secs, rss, runs = compile_pair(
        [PURECC, *flags, *CORPUS_COMMON, f"--report=json:{report}", "-o",
         out_c, path], [out_c, report])
    samples.add((unit.name, c), unit.lines, secs, rss, unit is largest)
    what = f"purecc {unit.name} config {c}"
    for code, _ in runs:
        tally.check(code is not None and (code == 0) == expect_ok,
                    f"{what}: exit {code}, expected "
                    f"{'accept' if expect_ok else 'reject'}")
    if runs[0][1] is None or runs[1][1] is None:
        return 0
    tally.check(runs[0][1] == runs[1][1], f"{what}: two compiles differ")
    return len(runs[0][1][0])


# --- metrics ------------------------------------------------------------------


def run_metrics(workload, samples):
    """A pass over the programs at nproc threads, from each program's own
    samples: the sum of the programs' medians and the sum of their tails,
    so that a host hiccup in one program does not make a whole pass slow."""
    tails = [tail(v) for v in samples.nproc.values()]
    _, pct, n = tails[0]
    s_n, s_1 = [], []
    for run in workload.runs:
        ref = median(samples.ref[run.name])
        s_n.append(ref / median(samples.nproc[run.name]))
        s_1.append(ref / median(samples.one[run.name]))
    rows = "; ".join(
        f"{r.name} ref {median(samples.ref[r.name]) * 1e3:.1f} "
        f"1t {median(samples.one[r.name]) * 1e3:.1f} "
        f"{NPROC}t {median(samples.nproc[r.name]) * 1e3:.1f}"
        for r in workload.runs)
    return {
        "run_p50_s": (sum(median(v) for v in samples.nproc.values()), "s"),
        "run_tail_s": (sum(t[0] for t in tails), "s"),
        "speedup_nproc": (geomean(s_n), "x"),
        "speedup_1t": (geomean(s_1), "x"),
    }, (f"run_tail_s sums each program's p{pct:.0f} of {n} runs at {NPROC} "
        "threads; "
        f"{len(samples.ref[workload.runs[0].name])} 1-thread and "
        "reference samples per program; median ms per program: " + rows)


def untraced(args, workload, work, tally):
    st = setup(workload, work)
    for f in st.failures:
        tally.check(False, f)
    if st.failures:
        return {}, [], st
    expected = reference_outputs(workload, st, tally)
    notes = []
    defects = run_defects(workload, st, expected) if workload.defects else {}
    if defects:
        notes.append("known-defect reproducers at %d threads, failed runs: %s"
                     % (NPROC, ", ".join(f"{k} {v}/{DEFECT_RUNS}"
                                         for k, v in defects.items())))
    samples = RunSamples(workload.runs)
    # compile_corpus first compiles one pass over every (unit, config),
    # then warms up and runs its differential set for the rest of the
    # window: single-threaded phases between multi-threaded runs let a
    # shared VM's idle vCPUs go, and getting them back costs milliseconds
    # per region. The run workloads recompile one build per iteration, so
    # a slow spell of the host hits compile and run samples alike.
    compile_samples = CompileSamples()
    deadline = time.perf_counter() + args.seconds
    emitted = st.emitted_bytes
    if workload.corpus_units:
        largest = max(workload.corpus_units, key=lambda u: len(u.text))
        emitted = sum(compile_job(job, work, compile_samples, tally, largest)
                      for job in corpus_jobs(workload, work))
        warm = workload.runs[0]
        warm_until = time.perf_counter() + WARM_UP_S
        while time.perf_counter() < warm_until:
            run_program(st.binaries[warm.build.key], warm.args, NPROC)
    iteration = 0
    while time.perf_counter() < deadline or iteration < 2 * SLOW_PASS_EVERY:
        one_iteration(workload, st, expected, samples, tally,
                      iteration % SLOW_PASS_EVERY == 0)
        if not workload.corpus_units:
            recompile(workload.builds[iteration % len(workload.builds)], st,
                      compile_samples, tally)
        iteration += 1

    metrics, note = run_metrics(workload, samples)
    notes.append(note)
    cm, note = compile_samples.metrics()
    notes.append(note + (f" over {len(workload.corpus_units)} units x "
                         f"{len(CORPUS_CONFIGS)} configs"
                         if workload.corpus_units else
                         " over the workload's builds, one per iteration"))
    metrics.update(cm)
    metrics["emitted_kb"] = (emitted / 1024.0, "KiB")
    metrics["setup_s"] = (median(st.total_s), "s")
    return metrics, notes, st


# --- traced pass --------------------------------------------------------------


def parse_trace(path, parallel):
    """Durations (us) of the executions of `parallel` regions in one
    PUREC_TRACE file (the emitted ring keeps the first 65536 events)."""
    with open(path) as f:
        events = json.load(f)
    return [e["dur"] for e in events
            if e.get("ph") == "X" and e.get("name") in parallel]


def parse_stats(path, nproc):
    """The --instrument summary and PUREC_MEMO_STATS lines of one run:
    {region: (invocations, total_ns, [chunks per worker])}, and memo
    (hits, misses, evictions). Regions with worker chunks are the parallel
    ones."""
    regions, memo = {}, [0, 0, 0]
    if not os.path.exists(path):
        return regions, memo
    with open(path) as f:
        for line in f:
            head, _, rest = line.partition("] ")
            fields = dict(kv.split("=", 1) for kv in rest.split() if "=" in kv)
            if head.startswith("purec-instr["):
                chunks = [int(fields.get(f"w{w}", 0)) for w in range(nproc)]
                regions[head[len("purec-instr["):]] = (
                    int(fields["invocations"]), int(fields["total_ns"]), chunks)
            elif head.startswith("purec-memo["):
                for i, k in enumerate(("hits", "misses", "evictions")):
                    memo[i] += int(fields.get(k, 0))
    return regions, memo


def probe_layers(workload, st, work, trace_dir):
    """Compile-side layer metrics from the layer probe."""
    groups = {}
    if workload.corpus_units:
        units = write_units(workload, work)
        for c, flags in enumerate(CORPUS_CONFIGS):
            inline = "--inline-pure" in flags
            groups[f"config{c}"] = (flags + CORPUS_COMMON,
                                    [p for u, p in units if u.expects_ok(inline)])
    else:
        for b in workload.builds:
            groups[b.key] = (b.flags, [st.sources[b.key]])
    ms, counts = {}, {}
    for key, (flags, paths) in groups.items():
        # layerprobe takes the chain flags the workloads use, as purecc does.
        trace = os.path.join(trace_dir, f"compile.{key}.json")
        r = subprocess.run([PROBE, *flags, "--trace-out", trace, *paths],
                           capture_output=True, timeout=TOOL_TIMEOUT)
        if r.returncode != 0:
            raise SystemExit("perfbench: layerprobe failed: " +
                             r.stderr.decode(errors="replace")[-500:])
        out = json.loads(r.stdout)
        for k, v in out["ms"].items():
            ms[k] = ms.get(k, 0.0) + v
        for k, v in out["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return ms, counts


def traced(args, workload, work, tally):
    st = setup(workload, work, instrument=True)
    for f in st.failures:
        tally.check(False, f)
    if st.failures:
        return {}, [], st
    trace_dir = os.path.join(BUILD, "traces", workload.name)
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    ms, counts = probe_layers(workload, st, work, trace_dir)
    expected = reference_outputs(workload, st, tally)
    defects = run_defects(workload, st, expected) if workload.defects else {}

    # Run side, at nproc threads. Each program first runs instrumented with
    # the stats summary and PUREC_MEMO_STATS (exact region invocations,
    # wall and worker chunks; memo counters); then, until the window
    # closes, the instrumented binary under PUREC_TRACE alternates with
    # the plain emitted binary (region durations; tracing overhead).
    traced_s = {r.name: [] for r in workload.runs}
    plain_s = {r.name: [] for r in workload.runs}
    stats_wall = 0.0
    region_ns = launches = 0
    weighted = chunks = 0.0
    memo = {}
    parallel = {}
    trace = os.path.join(work, "run.trace.json")
    stats = os.path.join(work, "run.stats.txt")
    for run in workload.runs:
        if os.path.exists(stats):
            os.remove(stats)
        ok, out, secs = run_program(
            st.instrumented[run.build.key], run.args, NPROC,
            {"PUREC_STATS_FILE": stats, "PUREC_MEMO_STATS": "1"})
        tally.check(ok and out == expected[reference_key(st, run)],
                    f"instrumented {run.name} differs from the reference")
        stats_wall += secs
        regions, memo[run.name] = parse_stats(stats, NPROC)
        parallel[run.name] = {n for n, r in regions.items() if sum(r[2])}
        for name in parallel[run.name]:
            inv, total_ns, lanes = regions[name]
            launches += inv
            region_ns += total_ns
            weighted += max(lanes) / (sum(lanes) / len(lanes)) * sum(lanes)
            chunks += sum(lanes)
    durs = []
    passes = 0
    deadline = time.perf_counter() + args.seconds
    while passes < TRACE_RUNS or time.perf_counter() < deadline:
        for run in workload.runs:
            if os.path.exists(trace):
                os.remove(trace)
            ok, out, secs = run_program(st.instrumented[run.build.key],
                                        run.args, NPROC, {"PUREC_TRACE": trace})
            tally.check(ok and out == expected[reference_key(st, run)],
                        f"instrumented {run.name} differs from the reference")
            traced_s[run.name].append(secs)
            if passes == 0 and ok:
                durs += parse_trace(trace, parallel[run.name])
            ok, out, secs = run_program(st.binaries[run.build.key], run.args,
                                        NPROC)
            tally.check(ok and out == expected[reference_key(st, run)],
                        f"{run.name} differs from the reference")
            plain_s[run.name].append(secs)
        passes += 1

    plain_wall = sum(median(v) for v in plain_s.values())
    traced_wall = sum(median(v) for v in traced_s.values())
    durs.sort()

    def pct(p):
        return durs[min(len(durs) - 1, int(p * len(durs)))] if durs else 0.0

    hits = sum(m[0] for m in memo.values())
    misses = sum(m[1] for m in memo.values())
    evictions = sum(m[2] for m in memo.values())

    runs = {r.name: r for r in workload.runs}

    def ns_per_call(draw):
        """(memoized - unmemoized wall) / calls, plain binaries, nproc."""
        mem, pla = f"memoized.{draw}", f"unmemoized.{draw}"
        if mem not in runs:
            return 0.0
        calls = int(runs[mem].args[1]) * int(runs[mem].args[3])
        return (median(plain_s[mem]) - median(plain_s[pla])) * 1e9 / calls

    def hit_ratio(name):
        h, m, _ = memo.get(name, (0, 0, 0))
        return h / (h + m) if h + m else 0.0

    cand = counts.get("polyhedral.candidates", 0)
    extracted = counts.get("polyhedral.extracted", 0)
    metrics = {
        "preproc.ms": (ms.get("preproc", 0.0), "ms"),
        "preproc.bytes_per_s": (counts.get("preproc.bytes", 0) /
                                (ms["preproc"] / 1000.0)
                                if ms.get("preproc") else 0.0, "B/s"),
        "lexer.ms": (ms.get("lexer", 0.0), "ms"),
        "lexer.tokens": (counts.get("lexer.tokens", 0), "count"),
        "parser.ms": (ms.get("parser", 0.0), "ms"),
        "parser.functions": (counts.get("parser.functions", 0), "count"),
        "purity.check_ms": (ms.get("purity.check", 0.0), "ms"),
        "purity.scop_candidates": (counts.get("purity.scop_candidates", 0),
                                   "count"),
        "purity.infer_ms": (ms.get("purity.infer", 0.0), "ms"),
        "purity.inferred_pure": (counts.get("purity.inferred_pure", 0),
                                 "count"),
        "polyhedral.extract_ms": (ms.get("polyhedral.extract", 0.0), "ms"),
        "polyhedral.extract_ratio": (extracted / cand if cand else 0.0,
                                     "ratio"),
        "polyhedral.dependence_ms": (ms.get("polyhedral.dependence", 0.0),
                                     "ms"),
        "polyhedral.dependences": (counts.get("polyhedral.dependences", 0),
                                   "count"),
        "polyhedral.schedule_ms": (ms.get("polyhedral.schedule", 0.0), "ms"),
        "polyhedral.codegen_ms": (ms.get("polyhedral.codegen", 0.0), "ms"),
        "polyhedral.parallel_ratio": (counts.get("polyhedral.parallel", 0) /
                                      extracted if extracted else 0.0,
                                      "ratio"),
        "polyhedral.region_launches": (launches, "count"),
        "polyhedral.region_p50_us": (pct(0.50), "us"),
        "polyhedral.region_p99_us": (pct(0.99), "us"),
        "polyhedral.region_share": (region_ns / 1e9 / stats_wall, "ratio"),
        "polyhedral.serial_ms": ((stats_wall - region_ns / 1e9) * 1000.0,
                                 "ms"),
        "polyhedral.imbalance": (weighted / chunks if chunks else 0.0,
                                 "ratio"),
        "transform.chain_ms": (ms.get("transform.chain", 0.0), "ms"),
        "transform.self_ms": (ms.get("transform.self", 0.0), "ms"),
        "transform.fusions_taken": (counts.get("transform.fusions_taken", 0),
                                    "count"),
        "transform.fusions_rejected": (
            counts.get("transform.fusions_rejected", 0), "count"),
        "transform.fissioned": (counts.get("transform.fissioned", 0), "count"),
        "transform.substituted_calls": (
            counts.get("transform.substituted_calls", 0), "count"),
        "transform.report_ms": (ms.get("transform.report", 0.0), "ms"),
        "memo.classify_ms": (ms.get("memo.classify", 0.0), "ms"),
        "memo.thunks": (counts.get("memo.thunks", 0), "count"),
        "memo.hits": (hits, "count"),
        "memo.misses": (misses, "count"),
        "memo.evictions": (evictions, "count"),
        "memo.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                           "ratio"),
        "memo.hit_ratio.hot": (hit_ratio("memoized.hot"), "ratio"),
        "memo.hit_ratio.cold": (hit_ratio("memoized.cold"), "ratio"),
        "memo.ns_per_call.hot": (ns_per_call("hot"), "ns"),
        "memo.ns_per_call.cold": (ns_per_call("cold"), "ns"),
        "emit.print_ms": (ms.get("emit.print", 0.0), "ms"),
        "emit.bytes": (counts.get("emit.bytes", 0), "B"),
        "emit.trace_overhead_ratio": (traced_wall / plain_wall
                                      if plain_wall else 0.0, "ratio"),
        "setup.purecc_s": (median(st.purecc_s), "s"),
        "setup.gcc_s": (median(st.gcc_s), "s"),
        "defects.runs": (DEFECT_RUNS * len(defects), "count"),
        "defects.failed_runs": (sum(defects.values()), "count"),
    }
    notes = [f"traced pass: {passes} alternations of instrumented and plain "
             f"runs at {NPROC} threads; compile spans in {trace_dir}"]
    if defects:
        notes.append("known-defect reproducers at %d threads, failed runs: %s"
                     % (NPROC, ", ".join(f"{k} {v}/{DEFECT_RUNS}"
                                         for k, v in defects.items())))
    return metrics, notes, st


# --- provenance ---------------------------------------------------------------


def provenance(args):
    def first_line(cmd):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=10,
                               cwd=ROOT)
            return r.stdout.strip().splitlines()[0] if r.returncode == 0 \
                and r.stdout.strip() else "unknown"
        except OSError:
            return "unknown"

    hc = os.cpu_count() or 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": (first_line(["git", "rev-parse", "HEAD"])
                    if os.path.isdir(os.path.join(ROOT, ".git")) else "unknown"),
        "gcc": first_line(["gcc", "--version"]),
        "emit_cflags": " ".join(EMIT_CFLAGS),
        "ref_cflags": " ".join(REF_CFLAGS),
        "nproc": NPROC,
        "omp_num_threads": [1, NPROC],
        "run_env": RUN_ENV,
        "setup_reps": SETUP_REPS,
        "slow_pass_every": SLOW_PASS_EVERY,
        "defect_runs": DEFECT_RUNS,
        "hardware_concurrency": hc,
        "container_1core": hc <= 1,
        "host": platform.machine(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper_apps", "region_nests", "memo_reuse",
                             "compile_corpus"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the self-test; not a measurement")
    args = ap.parse_args()

    build_tools()
    workload = make_workload(args.workload, args.seed, args.smoke)
    work = os.path.join(BUILD, "work", f"{args.workload}.{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tally = Tally()
    try:
        if args.trace:
            metrics, notes, _ = traced(args, workload, work, tally)
        else:
            metrics, notes, _ = untraced(args, workload, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    for note in notes:
        print("# " + note)
    for note in tally.notes:
        print("# FAILED: " + note)
    print(f"# operations: {tally.attempted} attempted, {tally.failed} failed")
    if not metrics:
        raise SystemExit("perfbench: set-up failed")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
