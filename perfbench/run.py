"""focusfdr benchmark: one command, five seeded workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-go --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``):
  analyze-go    ``analyze`` + ``write_report_json`` with wfbh under the ds
                and the outer filter on a ~45k-node, depth-14 layered DAG.
  smooth-rows   ``analyze`` with wfbh:ds under each smoothing combiner on an
                ~8k-node layered DAG (single-row smoothing).
  smooth-block  ``check_superuniformity`` at n_mc=10000 (block smoothing).
  sim-fixed     ``run_simulation`` + ``write_simulation_csv`` on the wide
                and deep trees, unsmoothed and Simes-smoothed.
  sim-random    the same on the bipartite families, which redraw the graph
                every replication.

With ``--trace 0`` the run prints each operation kind's median time per
analysis or replication, and the end-to-end metrics: ``pass_ms`` (the sum
of the kinds' times: one pass over the workload), ``peak_rss_mb``
(peak RSS of the measuring process) and ``setup_s`` (median over fresh
interpreters of the time from start through ``import focusfdr`` and the
workload's first operation).  Inputs are made in a separate interpreter,
so they count in none of these.  With ``--trace 1`` it replays the
operations call by call through the public functions of each module and
prints per-layer busy times and counts (see ``tracing.py``).  Every
operation's output is checked against ``reference.json``; ``--record``
rewrites that file from the current code.

The gated times are reference-speed CPU times.  On a shared host the time
of identical work varies by up to 2x from one second to the next: the
host steals CPU from the machine, and the CPU runs slower while
neighbours load it, which shows in CPU time too.  So every timed
operation runs between two calls of a fixed pure-Python loop, and its CPU
time is scaled by ``REF_LOOP_S`` over the loop's CPU time at that moment.
A change to the program moves these times as it moves CPU time; the
host's speed of the moment moves them much less.  Wall time, plain CPU
time and the share of CPU stolen during the run are printed alongside.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment, is also written under ``.perfbench/results/``.
The benchmark is serial: ``FOCUSFDR_THREADS`` must be unset.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# serial: no BLAS thread pools, here or in the fresh interpreters started
# for set-up probes and input generation, whose CPU time would count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
STATE = os.path.join(ROOT, ".perfbench")
N_PROBES = 3
CHILD_TIMEOUT_S = 150
REF_LOOP_N = 200_000
# the reference loop's CPU time on an idle core of an Intel Xeon VM
REF_LOOP_S = 0.03

# focusfdr is imported from this checkout's src/; the benchmark's own
# modules come from the script's directory, which python puts on sys.path
sys.path.insert(0, SRC)
import workloads as wl  # noqa: E402

WORKLOADS = wl.WORKLOADS


class BenchError(RuntimeError):
    pass


def check_environment():
    if not os.path.isfile(os.path.join(SRC, "focusfdr", "__init__.py")):
        raise BenchError(f"no focusfdr package under {SRC}; "
                         "run from the repository root")
    if os.environ.get("FOCUSFDR_THREADS") is not None:
        raise BenchError("FOCUSFDR_THREADS is set; the benchmark is serial")


def import_focusfdr():
    import focusfdr

    if not os.path.abspath(focusfdr.__file__).startswith(SRC + os.sep):
        raise BenchError(f"focusfdr imported from {focusfdr.__file__}, "
                         f"not from {SRC}")
    return focusfdr


def environment():
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "FOCUSFDR_THREADS": os.environ.get("FOCUSFDR_THREADS"),
            "machine": platform.machine(), "system": platform.system()}


def load_reference(workload):
    """The workload's recorded outputs: {variant: {op name: fingerprint}}."""
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)[workload]
    except (OSError, KeyError) as exc:
        raise BenchError(f"no reference for {workload}: {exc!r}") from None
    if len(ref) != wl.N_VARIANTS:
        raise BenchError(f"reference for {workload} has {len(ref)} variants, "
                         f"expected {wl.N_VARIANTS}")
    return ref


def ref_loop():
    """CPU seconds of a fixed pure-Python loop: the speed of the moment."""
    c0 = time.process_time()
    x, table = 0, {}
    for i in range(REF_LOOP_N):
        x += i * i % 7
        table[i & 1023] = x
    return time.process_time() - c0


def at_ref_speed(cpu_s, loops_s):
    """``cpu_s`` scaled to the reference speed, from the CPU time of the two
    reference loops run around it."""
    return cpu_s * 2 * REF_LOOP_S / loops_s


def stolen_s():
    """CPU seconds the host has stolen from this machine, from
    /proc/stat; None where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_child(*args):
    """Run this script in a fresh interpreter; returns its last stdout line
    parsed as JSON."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Counts operations and those that raised or mismatched the reference."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def record(self, op, fingerprint=None, error=None):
        self.attempted += 1
        bad = (["raised"] if error is not None else wl.mismatches(
            self.reference[str(op.variant)][op.name], fingerprint))
        if bad:
            self.failed += 1
            print(f"MISMATCH {op.name} (variant {op.variant}): "
                  f"{', '.join(bad)}", file=sys.stderr)

    def record_check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"MISMATCH {what}", file=sys.stderr)

    def run(self, op):
        """Run ``op`` once; returns ({clock: seconds}, output or None)."""
        gc.collect()
        loops = ref_loop()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out, error = op.run(), None
        except Exception:  # an operation's failure is a result, not a crash
            out, error = None, True
            traceback.print_exc()
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        loops += ref_loop()
        self.record(op, None if error else op.fingerprint(out), error)
        return {"ref": at_ref_speed(dc, loops), "cpu": dc, "wall": dt}, out


CLOCKS = ("ref", "cpu", "wall")


def measure(ops, seconds, checker):
    """Run round after round of ``ops`` until ``seconds`` have passed,
    finishing at least the first; returns {clock: {op name: times}}."""
    times = {clock: {op.name: [] for op in ops} for clock in CLOCKS}
    t_end = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < t_end:
        for op in ops:
            if r and time.perf_counter() >= t_end:
                break
            for clock, dt in checker.run(op)[0].items():
                times[clock][op.name].append(dt)
        r += 1
    return times


def kind_values(kinds, times):
    """Per kind: seconds per unit from the ops' median times, and samples."""
    out = {}
    for k in kinds:
        total = sum(statistics.median(times[op.name]) for op in k.ops)
        units = sum(op.units for op in k.ops)
        out[k.name] = (total / units, min(len(times[op.name]) for op in k.ops))
    return out


def run_untraced(workload, inputs_path, inputs, seconds, checker):
    probes = []
    for _ in range(N_PROBES):
        res = run_child("--probe", workload, inputs_path)
        checker.record_check(f"setup probe: {res['mismatch']}",
                             not res["mismatch"])
        probes.append(res)

    import_focusfdr()
    ops, kinds = wl.build(workload, inputs)
    steal0, t0 = stolen_s(), time.perf_counter()
    times = measure(ops, seconds, checker)
    steal1, elapsed = stolen_s(), time.perf_counter() - t0
    per_kind = {clock: kind_values(kinds, times[clock]) for clock in CLOCKS}
    pass_ms = {clock: 1e3 * sum(v for v, _ in per_kind[clock].values())
               for clock in CLOCKS}
    metrics = {
        "pass_ms": {"value": pass_ms["ref"], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(
            res["ref"] for res in probes), "unit": "s"},
    }
    detail = {}
    for clock, values in per_kind.items():
        for k in kinds:
            value, samples = values[k.name]
            detail[f"{k.name}.{clock}"] = {"value": value * k.scale,
                                           "unit": k.unit, "samples": samples}
    for clock in CLOCKS:
        detail[f"pass_{clock}_ms"] = {"value": pass_ms[clock], "unit": "ms"}
    if steal0 is not None:
        detail["stolen_share"] = {
            "value": (steal1 - steal0) / (elapsed * os.cpu_count()),
            "unit": "ratio"}
    for clock in CLOCKS:
        detail[f"setup_probes_{clock}_s"] = {
            "value": [res[clock] for res in probes], "unit": "s"}
    detail["op_times_s"] = {"value": times, "unit": "s"}
    return metrics, detail


def main_probe(workload, inputs_path):
    # CPU time counts from the start of the interpreter, wall time from here
    loops = ref_loop()
    t0 = time.perf_counter()
    import_focusfdr()
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    op = wl.build(workload, inputs)[0][0]
    out = op.run()
    setup_cpu_s, setup_wall_s = (time.process_time() - loops,
                                 time.perf_counter() - t0)
    loops += ref_loop()
    expected = load_reference(workload)[str(op.variant)][op.name]
    print(json.dumps({"ref": at_ref_speed(setup_cpu_s, loops),
                      "cpu": setup_cpu_s, "wall": setup_wall_s,
                      "mismatch": wl.mismatches(expected,
                                                op.fingerprint(out))}))


def main_generate(workload, variant, workdir):
    import_focusfdr()
    print(json.dumps(wl.generate(workload, workdir, int(variant))))


def main_record(names):
    """Rewrite reference.json entries for ``names`` from the current code."""
    import_focusfdr()
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    os.makedirs(STATE, exist_ok=True)
    for workload in names:
        ref[workload] = {}
        for variant in range(wl.N_VARIANTS):
            workdir = tempfile.mkdtemp(dir=STATE)
            try:
                inputs = wl.generate(workload, workdir, variant)
                ops, _ = wl.build(workload, inputs)
                ref[workload][str(variant)] = {
                    op.name: op.fingerprint(op.run()) for op in ops}
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {workload} variant {variant}", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main_bench(args):
    variant = args.seed % wl.N_VARIANTS
    checker = Checker(load_reference(args.workload))
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=STATE)
    try:
        inputs = run_child("--generate", args.workload, str(variant), workdir)
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            import tracing

            metrics, detail = tracing.run_traced(
                args.workload, inputs, checker,
                os.path.join(STATE, "results", f"{tag}-spans.json"))
        else:
            metrics, detail = run_untraced(args.workload, inputs_path, inputs,
                                           args.seconds, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    described = {k: v for k, v in inputs.items()
                 if k not in ("dag_file", "pvalues_file")}
    error_rate = checker.failed / max(checker.attempted, 1)
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} (input variant "
          f"{variant}): {json.dumps(described)}")
    for name, m in {**detail, **metrics}.items():
        if name == "op_times_s":
            continue
        print(f"  {name} = {m['value']} {m['unit']}"
              + (f"  (n={m['samples']})" if "samples" in m else ""))
    print(f"  error_rate = {error_rate} ({checker.failed}/{checker.attempted})")
    with open(os.path.join(STATE, "results", f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "inputs": described, "metrics": metrics, "detail": detail,
                   "attempted": checker.attempted, "failed": checker.failed,
                   "error_rate": error_rate}, fh, indent=1)
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", nargs="*", choices=WORKLOADS,
                        help="rewrite reference.json for these workloads")
    parser.add_argument("--probe", nargs=2, help=argparse.SUPPRESS)
    parser.add_argument("--generate", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        check_environment()
        if args.probe:
            main_probe(*args.probe)
        elif args.generate:
            main_generate(*args.generate)
        elif args.record is not None:
            main_record(args.record or WORKLOADS)
        elif args.workload:
            main_bench(args)
        else:
            parser.error("--workload is required")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
