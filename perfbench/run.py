#!/usr/bin/env python3
"""Layered benchmark of the depthwl command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is fit-multistart, simulate-grid, depth-projection (see workloads.py
for why each was chosen), or ``all`` to run the three in turn.  Run it from a
checkout of the repository: the CLI is imported from ``src/`` through
PYTHONPATH and called as ``depthwl.cli.main(argv)``.

Load model: a closed loop with one client.  Each invocation is a fresh
process started after the previous one exited.  Children get BLAS and OpenMP
pinned to one thread and DEPTHWL_THREADS unset, which means serial.

One run
1. writes the workload's inputs from --seed into a scratch directory under
   .bench_work/ (removed at the end);
2. runs one discarded invocation of the first dataset to warm the caches;
   with --trace 0 it times SETUP_PROBES set-up probes during the run:
   interpreter start, ``import depthwl.cli`` and parsing the inputs, in a
   process of their own;
3. invokes the CLI again and again for --seconds, round robin over the
   workload's datasets (each at least once), checking each output against
   the stored reference for its dataset, or the oracle when there is none
   (workloads.py);
4. prints a metric table, one JSON record line (machine, samples, the bases
   of the ratios) and, as the last line, the result object.

wall_s is the wall time of one invocation over the workload's mix of
datasets: the median of each dataset's invocations, averaged over the
datasets.  A run of fit-multistart meets each of its datasets about once, and
their costs differ, so the average steadies the figure from seed to seed
better than a median would.  setup_s and peak RSS are medians over the run.
With --trace 1 each invocation is followed by a traced one of the same
dataset; the run reports the per-layer metrics of the traced ones (medians)
and the tracing overhead: traced wall_s minus untraced wall_s.

An operation fails when its output is wrong: every operation of an
invocation whose output differs from its reference or fails its oracle, or
that exits with an error.  Operations the program reports as unsolved in a
correct output (a start that did not converge, a failed replication) are
counted apart, as ``unsolved``, and shown in the table and the record.

Exit status: 0 when every output was correct, 1 when one was not, 2 when the
program is missing or could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (name, unit) of the end-to-end metrics; bounds are in BENCHMARK.json.
E2E_METRICS = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("throughput", "ops/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_METRICS = tracer.LAYER_METRICS + (("trace.overhead_s", "s", "lower"),)

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# argv: PEAK_RSS_FILE, then the depthwl arguments.  The peak RSS is VmHWM of
# the process image after exec; ru_maxrss would also count the memory of the
# benchmark process the child was forked from.
CLI_MAIN = """\
import sys
from depthwl.cli import main
try:
    code = main(sys.argv[2:])
finally:
    with open("/proc/self/status") as fh, open(sys.argv[1], "w") as out:
        out.write(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""
WAITING_NOTE = ("waiting time is not recorded: the run is serial, so no layer "
                "waits on another")


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


@dataclass
class Sample:
    wall_s: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float = 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DEPTHWL_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd: list, env: dict) -> Sample:
    """Run ``cmd`` to completion; wall time from spawn to exit."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Sample(time.perf_counter() - t0, -1, "",
                      f"killed after {CHILD_TIMEOUT_S} s")
    return Sample(time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr)


def run_cli(args: list, env: dict, workdir: Path) -> Sample:
    """One untraced invocation of ``depthwl.cli.main(args)``, with its peak RSS."""
    rss_file = workdir / "peak_rss_kb.txt"
    rss_file.unlink(missing_ok=True)
    sample = spawn([sys.executable, "-c", CLI_MAIN, str(rss_file), *args], env)
    if rss_file.exists():
        sample.rss_mb = int(rss_file.read_text()) / 1024.0
    return sample


class Checker:
    """Judges the invocations of one case; identical outputs are judged once."""

    def __init__(self, case: workloads.Case):
        self.case = case
        self.verdicts: dict = {}

    def __call__(self, sample: Sample) -> workloads.Verdict:
        if sample.code != 0:
            tail = sample.stderr.strip().splitlines()[-1:] or [""]
            return workloads.Verdict(False, self.case.ops,
                                     f"exit code {sample.code}: {tail[0]}")
        digest = self.case.output_digest(sample.stdout)
        if digest not in self.verdicts:
            try:
                self.verdicts[digest] = self.case.judge()
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdicts[digest] = workloads.Verdict(
                    False, self.case.ops, f"unreadable output: {exc!r}")
        return self.verdicts[digest]


def pooled_wall(runs: list) -> float:
    """Mean over the datasets of each dataset's median wall time."""
    by_key: dict = {}
    for key, sample, _, _ in runs:
        by_key.setdefault(key, []).append(sample.wall_s)
    return statistics.fmean(statistics.median(w) for w in by_key.values())


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "child_thread_env": {var: env[var] for var in THREAD_VARS},
        "DEPTHWL_THREADS": "unset",
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    load_start = os.getloadavg()
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base))
    try:
        cases = workloads.prepare(workload, size, seed, workdir)
        first = cases[0]
        env = child_env()
        layer_json = workdir / "layers.json"
        probe = [sys.executable, "-c", first.setup_code, *first.setup_args]

        def probe_once() -> float:
            s = spawn(probe, env)
            if s.code != 0:
                raise BenchError(f"set-up probe failed: {s.stderr.strip()}")
            return s.wall_s

        # Warm-up, not counted: one invocation of the first dataset fills the
        # bytecode and file caches and the program's lazy imports, which
        # otherwise make the first timed invocation the slowest of a run.
        for path in first.outputs:
            path.unlink(missing_ok=True)
        warm = run_cli(first.args, env, workdir)
        if warm.code != 0:
            raise BenchError(f"warm-up invocation failed: {warm.stderr.strip()}")
        setups = []

        # Round robin over the cases, each invocation untraced and, with
        # --trace 1, traced right after, until --seconds have passed and
        # every case ran once.  With --trace 0 the set-up probes are spread
        # evenly over the run, so that they meet the same machine conditions
        # as the invocations; their time is not counted against --seconds.
        checks = [Checker(case) for case in cases]
        plain, traced = [], []  # (case key, sample, verdict, layer metrics)
        start, probe_s = time.perf_counter(), 0.0

        def measured() -> float:
            return time.perf_counter() - start - probe_s

        i = 0
        while i < len(cases) or measured() < seconds:
            case, check = cases[i % len(cases)], checks[i % len(cases)]
            i += 1
            for use_trace in (False, True) if trace else (False,):
                for path in case.outputs + [layer_json]:
                    path.unlink(missing_ok=True)
                layers = None
                if use_trace:
                    sample = spawn([sys.executable, str(HERE / "traced_cli.py"),
                                    str(layer_json), "--", *case.args], env)
                    if layer_json.exists():
                        layers = json.loads(layer_json.read_text())["metrics"]
                else:
                    sample = run_cli(case.args, env, workdir)
                (traced if use_trace else plain).append(
                    (case.key, sample, check(sample), layers))
            if (not trace and len(setups) < SETUP_PROBES
                    and measured() >= (len(setups) + 0.5) * seconds / SETUP_PROBES):
                setups.append(probe_once())
                probe_s += setups[-1]
        while not trace and len(setups) < SETUP_PROBES:
            setups.append(probe_once())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = [r[2] for r in plain + traced]
    attempted = first.ops * len(verdicts)
    failed = sum(v.failed_ops for v in verdicts)
    unsolved = sum(v.unsolved_ops for v in verdicts)
    correct = all(v.ok for v in verdicts)
    wall = pooled_wall(plain)

    if trace:
        layers = [r[3] for r in traced if r[3] is not None]

        def layer_value(name):
            return statistics.median(m[name] for m in layers) if layers else 0.0

        metrics = {name: {"value": layer_value(name), "unit": unit}
                   for name, unit, _ in tracer.LAYER_METRICS}
        metrics["trace.overhead_s"] = {
            "value": pooled_wall(traced) - wall,
            "unit": "s"}
        bases = {k: layer_value(k) for k in (layers[0] if layers else {})
                 if k.startswith("base.")}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "throughput": first.ops / wall,
            "peak_rss_mb": statistics.median(r[1].rss_mb for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_METRICS}
        bases = {}

    def samples(runs):
        return [{"dataset": key, "wall_s": s.wall_s, "peak_rss_mb": s.rss_mb}
                for key, s, _, _ in runs]

    record = {
        "workload": workload, "seed": seed, "size": size, "trace": int(trace),
        "seconds": seconds, "datasets": [c.key for c in cases],
        "reference": sorted({c.reference for c in cases}),
        "checks": sorted({v.detail for v in verdicts}),
        "ops_per_invocation": first.ops, "op": first.op_name,
        "fail_frac": failed / attempted,
        "unsolved": unsolved,
        "unsolved_frac": unsolved / attempted,
        "untraced": samples(plain),
        "traced": samples(traced),
        "setup_s": setups,
        "ratio_bases": bases,
        "machine": machine_record(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "note": WAITING_NOTE,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"record": record, "result": result}


def print_table(out: dict) -> None:
    rec, res = out["record"], out["result"]
    print(f"depthwl benchmark: workload={rec['workload']} seed={rec['seed']} "
          f"size={rec['size']} trace={rec['trace']} datasets={rec['datasets']} "
          f"reference={'+'.join(rec['reference'])}")
    print(f"  invocations: {len(rec['untraced'])} untraced, "
          f"{len(rec['traced'])} traced; "
          f"{rec['ops_per_invocation']} {rec['op']}s each; closed loop, one client")
    for name, m in res["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<32} {rec['fail_frac']:>14.6g} ratio "
          f"({res['failed']} of {res['attempted']} {rec['op']}s failed)")
    print(f"  {'unsolved_frac':<32} {rec['unsolved_frac']:>14.6g} ratio "
          f"({rec['unsolved']} {rec['op']}s reported unsolved by the program "
          f"in correct outputs)")
    for detail in rec["checks"]:
        print(f"  check: {detail}")
    print(f"  {rec['note']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "depthwl" / "cli.py").is_file():
        print(f"error: depthwl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    outs = {}
    try:
        for name in names:
            outs[name] = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), args.size)
            print_table(outs[name])
            print(json.dumps({"record": outs[name]["record"]}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps({"workloads": {k: v["result"] for k, v in outs.items()}}))
    else:
        print(json.dumps(outs[args.workload]["result"]))
    return 0 if all(v["result"]["correct"] for v in outs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
