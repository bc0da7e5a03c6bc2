"""Regenerate the stored reference outputs of a workload.

    python3 perfbench/make_refs.py --workload NAME --datasets 0-99

Runs the CLI once per dataset key on the full-size inputs, requires the
output to pass the workload's oracle, and stores the part of it the
correctness gate compares in refs/<NAME>.json, keeping the entries of other
keys.  Seed s of a workload with k datasets per run uses keys s*k to
s*k+k-1.  A change that alters results on purpose regenerates the references
and says so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def parse_keys(text: str) -> list:
    keys = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        keys += range(int(lo), int(hi or lo) + 1)
    return keys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--datasets", required=True, help="e.g. 0-99 or 0,5,7-9")
    args = parser.parse_args(argv)

    path = workloads.REFS / f"{args.workload}.json"
    refs = json.loads(path.read_text())["datasets"] if path.exists() else {}
    base = run.ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    env = run.child_env()
    for key in parse_keys(args.datasets):
        workdir = Path(tempfile.mkdtemp(prefix=f"ref-{args.workload}-{key}-", dir=base))
        try:
            case = workloads.make_case(args.workload, "full", key, workdir, stored=False)
            sample = run.run_cli(case.args, env, workdir)
            verdict = run.Checker(case)(sample)
            print(f"dataset {key}: {verdict.detail}; {verdict.failed_ops} failed "
                  f"{case.op_name}s", flush=True)
            if not verdict.ok:
                return 1
            refs[str(key)] = case.summary()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    entries = ",\n".join(f'    "{k}": {json.dumps(refs[k], separators=(",", ":"))}'
                         for k in sorted(refs, key=int))
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        "{\n"
        f'  "workload": "{args.workload}",\n'
        '  "size": "full",\n'
        f'  "datasets": {{\n{entries}\n  }}\n'
        "}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
