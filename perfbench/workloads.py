"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

A run of a workload cycles through ``datasets`` cases.  Case j of seed s
uses dataset key s * datasets + j; its input files are written from that key
alone.  Each case names the `depthwl` CLI arguments that read its files, the
operations one invocation performs, and judges an invocation's output: it is
compared with the stored reference for its key (``refs/<workload>.json``),
and a key without a stored reference is judged by an independent oracle.

Workloads (``why`` is repeated in BENCHMARK.json):

- ``fit-multistart``: ``depthwl fit`` with 500 elemental-subsample starts on
  n=50, p=2 two-cluster data.  Estimator, residuals, model depth and the
  KL deduplication do almost all the work; empirical depth is computed once.
- ``simulate-grid``: ``depthwl simulate`` on a 6-placement contamination grid
  of 100 replications each, one ``truth`` start per dataset.  Many small
  fits, no deduplication, exact-2d empirical depth is the largest layer.
- ``depth-projection``: ``depthwl depth`` with 4000 projection directions on
  n=3200 rows.  Projection depth is nearly all the time; no estimator.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

WORKLOADS = ("fit-multistart", "simulate-grid", "depth-projection")

REFS = Path(__file__).resolve().parent / "refs"

# Sizes per workload.  "tiny" exists for the self-test only and has no
# stored references, so its outputs are judged by the oracles.  The cost of
# one fit-multistart dataset depends on how many roots its starts reach
# (about 19 to 30 between quartiles over datasets), so a run pools the
# invocations of 15 datasets, about one run_seconds' worth, and averages
# their times to steady its figures from seed to seed.
SIZES = {
    "full": {
        "fit-multistart": {"datasets": 15, "n": 50, "starts": 500},
        "simulate-grid": {"datasets": 1, "mu_cs": [0.0, 1.0, 2.0, 3.0, 5.0, 10.0],
                          "reps": 100},
        "depth-projection": {"datasets": 1, "n": 3200, "directions": 4000},
    },
    "tiny": {
        "fit-multistart": {"datasets": 2, "n": 20, "starts": 10},
        "simulate-grid": {"datasets": 1, "mu_cs": [0.0, 10.0], "reps": 2},
        "depth-projection": {"datasets": 1, "n": 100, "directions": 50},
    },
}

# A converged fit moved less than tol = 1e-8 (on the scale 1 + |value|) in
# its last step.  For an iteration contracting by at most 0.99 per step that
# puts each result within 100 * tol of the exact root, and two results of the
# same root within twice that.
TOL = 2 * 100 * 1e-8

# The CLI's default weights for alpha = 0.5: piecewise family with
# (gamma, delta1, delta2, xi) = (0.3, 2, 9, 1).
_ALPHA, _GAMMA, _DELTA1, _DELTA2, _XI = 0.5, 0.3, 2.0, 9.0, 1.0
# Roots closer than this symmetrized KL count as one (DEDUP_KL).
_DEDUP_KL = 1e-3
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Verdict:
    """The judgement of one invocation's output.

    ``failed_ops`` counts the operations whose output is wrong: all of them
    when the output differs from its reference or fails its oracle, else 0.
    ``unsolved_ops`` counts the operations the program itself reports as
    unsolved in a correct output (starts that did not converge, failed
    replications); that is a property of the estimator on the data, reported
    but not a wrong output.
    """

    ok: bool
    failed_ops: int
    detail: str
    unsolved_ops: int = 0


@dataclass
class Case:
    """One dataset of a workload, its input files written."""

    key: int              # dataset key; stored references are indexed by it
    args: list            # depthwl CLI arguments
    outputs: list         # files an invocation writes; removed before each one
    ops: int              # operations one invocation performs
    op_name: str
    setup_code: str       # python -c body: import depthwl.cli, parse the inputs
    setup_args: list
    judge: Callable[[], Verdict]     # judges the files in ``outputs``
    summary: Callable[[], object]    # the part of the outputs a reference keeps
    reference: str                   # "stored", or "oracle" when there is none

    def output_digest(self, stdout: str) -> str:
        h = hashlib.sha256(stdout.encode())
        for path in self.outputs:
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()


def prepare(workload: str, size: str, seed: int, workdir: Path) -> list:
    """Write the inputs of every case of ``workload`` at ``seed``."""
    k = SIZES[size][workload]["datasets"]
    cases = []
    for j in range(k):
        (workdir / f"d{j}").mkdir()
        cases.append(make_case(workload, size, seed * k + j, workdir / f"d{j}"))
    return cases


def make_case(workload: str, size: str, key: int, workdir: Path,
              stored: bool = True) -> Case:
    """Write the inputs of dataset ``key`` and return its case.

    ``stored=False`` judges outputs by the oracle even when a stored
    reference exists (used to regenerate references).
    """
    params = SIZES[size][workload]
    ref = load_reference(workload, size, key) if stored else None
    maker = {
        "fit-multistart": _fit_case,
        "simulate-grid": _simulate_case,
        "depth-projection": _depth_case,
    }[workload]
    return maker(workdir, key, params, ref)


def load_reference(workload: str, size: str, key: int):
    path = REFS / f"{workload}.json"
    if size != "full" or not path.exists():
        return None
    return json.loads(path.read_text())["datasets"].get(str(key))


def _source(ref) -> str:
    return "oracle" if ref is None else "stored"


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, tag]))


def _write_csv(path: Path, rows: np.ndarray) -> None:
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                            for row in rows))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * (1.0 + abs(b))


# --------------------------------------------------------------------------
# fit-multistart


def _fit_case(workdir: Path, key: int, params: dict, ref) -> Case:
    n, starts = params["n"], params["starts"]
    rng = _rng(key, 1)
    n_far = round(0.3 * n)
    shift = 7.0 / math.sqrt(2.0)  # cluster centre 7 units from the origin
    data = np.vstack([rng.standard_normal((n - n_far, 2)),
                      shift + rng.standard_normal((n_far, 2))])
    data = data[rng.permutation(n)]
    data_csv = workdir / "fit-data.csv"
    out = workdir / "roots.json"
    _write_csv(data_csv, data)

    def judge() -> Verdict:
        doc = json.loads(out.read_text())
        if ref is not None:
            ok, detail = _compare_fit(fit_summary(doc), ref)
        else:
            ok, detail = _fit_oracle(data, doc)
        return Verdict(ok, 0 if ok else starts, detail,
                       doc["diagnostics"]["n_failed"] if ok else 0)

    return Case(
        key,
        args=["fit", "--input", str(data_csv), "--init", "subsample",
              "--subsamples", str(starts), "--seed", str(key),
              "--output", str(out)],
        outputs=[out], ops=starts, op_name="start",
        setup_code=_LOAD_CSV, setup_args=[str(data_csv)],
        judge=judge, summary=lambda: fit_summary(json.loads(out.read_text())),
        reference=_source(ref),
    )


def _root_vector(root: dict) -> list:
    mu, sigma = root["params"]["mu"], root["params"]["sigma"]
    return [mu[0], mu[1], sigma[0][0], sigma[0][1], sigma[1][1]]


def fit_summary(doc: dict) -> dict:
    """The part of a root-set JSON the reference keeps."""
    return {
        "n_roots": len(doc["roots"]),
        "selected": doc["selected"],
        "roots": [[float(f"{v:.10g}") for v in _root_vector(r)]
                  for r in doc["roots"]],
    }


def _compare_fit(got: dict, ref: dict) -> tuple[bool, str]:
    if got["n_roots"] != ref["n_roots"]:
        return False, f"{got['n_roots']} roots, reference has {ref['n_roots']}"
    if got["selected"] != ref["selected"]:
        return False, f"selected root {got['selected']}, reference {ref['selected']}"
    for i, (a, b) in enumerate(zip(got["roots"], ref["roots"])):
        if not all(_close(x, y) for x, y in zip(a, b)):
            return False, f"root {i} parameters {a} differ from reference {b}"
    return True, f"{got['n_roots']} roots match the stored reference"


def _exact_depths_2d(data: np.ndarray) -> np.ndarray:
    """Half-plane depth of each row by brute force over direction arcs.

    The closed half-plane count through q changes only where the boundary
    passes through a sample point, so its minimum is attained at the middle
    of some arc between consecutive critical directions; every such
    midpoint is tested.
    """
    n = data.shape[0]
    out = np.empty(n)
    for i, q in enumerate(data):
        off = data - q
        nz = (off != 0.0).any(axis=1)
        v = off[nz]
        if v.shape[0] == 0:
            out[i] = 1.0
            continue
        crit = np.arctan2(v[:, 1], v[:, 0]) + np.pi / 2.0
        crit = np.sort(np.mod(np.concatenate([crit, crit + np.pi]), 2.0 * np.pi))
        mids = 0.5 * (crit + np.append(crit[1:], crit[0] + 2.0 * np.pi))
        u = np.stack([np.cos(mids), np.sin(mids)], axis=1)
        counts = (v @ u.T >= 0.0).sum(axis=0)
        out[i] = (counts.min() + (n - v.shape[0])) / n
    return out


def _sym_kl(mu0, s0, mu1, s1) -> float:
    def kl(ma, sa, mb, sb):
        inv = np.linalg.inv(sb)
        d = mb - ma
        return 0.5 * (np.trace(inv @ sa) + d @ inv @ d - len(ma)
                      + np.linalg.slogdet(sb)[1] - np.linalg.slogdet(sa)[1])
    return kl(mu0, s0, mu1, s1) + kl(mu1, s1, mu0, s0)


def _fit_oracle(data: np.ndarray, doc: dict) -> tuple[bool, str]:
    """Check a root set without a stored reference.

    Every root must be a fixed point of the reweighting equations: its
    residuals follow from exact depth and the Gaussian model depth, its
    weights from the residuals, and its parameters from the weighted
    moments.  Roots must be distinct and the selected one must carry the
    most weight.
    """
    n = data.shape[0]
    roots = doc["roots"]
    if not roots or doc["selected"] is None:
        return False, "no root"
    d_emp = _exact_depths_2d(data)
    tiny = np.finfo(np.float64).tiny
    params = []
    for k, r in enumerate(roots):
        mu = np.asarray(r["params"]["mu"])
        sigma = np.asarray(r["params"]["sigma"])
        w = np.asarray(r["weights"])
        if not r["converged"]:
            return False, f"root {k} is not converged"
        z = np.linalg.solve(np.linalg.cholesky(sigma), (data - mu).T)
        d_model = np.maximum(0.5 * special.gammaincc(0.5, 0.5 * (z * z).sum(axis=0)),
                             tiny)
        tau = (d_emp - d_model) / d_model**_ALPHA
        if not np.allclose(tau, r["residuals"], rtol=1e-9, atol=1e-9):
            return False, f"root {k}: residuals disagree with the depths"
        h = np.clip((_DELTA2 - tau) / (_DELTA2 - _DELTA1), 0.0, 1.0)
        w_expected = np.where(tau <= np.median(tau) + _XI,
                              (h + _GAMMA) / (1.0 + _GAMMA), 0.0)
        if not np.allclose(w, w_expected, rtol=1e-9, atol=1e-12):
            return False, f"root {k}: weights disagree with the residuals"
        m = w @ data / w.sum()
        c = data - m
        s = (c.T * w) @ c / n
        if not all(_close(a, b) for a, b in zip(np.append(m, s), np.append(mu, sigma))):
            return False, f"root {k} is not a fixed point of the reweighting"
        params.append((mu, sigma, float(w.sum()), float(np.linalg.det(sigma))))
    for i in range(len(params)):
        for j in range(i):
            if _sym_kl(params[i][0], params[i][1], params[j][0], params[j][1]) < _DEDUP_KL:
                return False, f"roots {j} and {i} are duplicates"
    best = min(range(len(params)), key=lambda i: (-params[i][2], params[i][3], i))
    if best != doc["selected"]:
        return False, f"selected root {doc['selected']}, most weight on {best}"
    return True, f"{len(roots)} roots pass the fixed-point oracle"


# --------------------------------------------------------------------------
# simulate-grid

_SIM_INT = ("p", "s", "n", "reps", "failures", "retrieved")
_SIM_FLOAT = ("epsilon", "mu_c", "sigma_c",
              "mean_mse", "mean_kl", "mle_mean_mse", "mle_mean_kl")


def _simulate_case(workdir: Path, key: int, params: dict, ref) -> Case:
    grid = {
        "dims": [2], "size_factors": [10], "epsilons": [0.2],
        "mu_cs": params["mu_cs"], "sigma_cs": [1.0],
        "reps": params["reps"], "seed": key,
        "init": {"strategy": "truth"},
    }
    grid_json = workdir / "grid.json"
    grid_json.write_text(json.dumps(grid, indent=2) + "\n")
    outdir = workdir / "sim"
    report = outdir / "report.csv"
    reps = params["reps"] * len(params["mu_cs"])

    def judge() -> Verdict:
        rows = simulate_summary(report.read_text())
        if ref is not None:
            ok, detail = _compare_simulate(rows, ref)
        else:
            ok, detail = _simulate_oracle(rows, grid)
        return Verdict(ok, 0 if ok else reps, detail,
                       sum(r["failures"] for r in rows) if ok else 0)

    return Case(
        key,
        args=["simulate", "--grid", str(grid_json), "--output-dir", str(outdir)],
        outputs=[report, outdir / "summary.json"], ops=reps, op_name="replication",
        setup_code=_LOAD_GRID, setup_args=[str(grid_json)],
        judge=judge, summary=lambda: simulate_summary(report.read_text()),
        reference=_source(ref),
    )


def simulate_summary(csv_text: str) -> list:
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rec = dict(zip(header, line.split(",")))
        row = {k: int(rec[k]) for k in _SIM_INT}
        row.update({k: float(f"{float(rec[k]):.12g}") for k in _SIM_FLOAT})
        rows.append(row)
    return rows


def _compare_simulate(rows: list, ref: list) -> tuple[bool, str]:
    if len(rows) != len(ref):
        return False, f"{len(rows)} cells, reference has {len(ref)}"
    for i, (a, b) in enumerate(zip(rows, ref)):
        for k in _SIM_INT:
            if a[k] != b[k]:
                return False, f"cell {i} {k} = {a[k]}, reference {b[k]}"
        for k in _SIM_FLOAT:
            if not _close(a[k], b[k]):
                return False, f"cell {i} {k} = {a[k]!r}, reference {b[k]!r}"
    return True, f"{len(rows)} cells match the stored reference"


def _simulate_oracle(rows: list, grid: dict) -> tuple[bool, str]:
    """Structural check of a report without a stored reference."""
    if [r["mu_c"] for r in rows] != grid["mu_cs"]:
        return False, "cells do not follow the grid"
    for i, r in enumerate(rows):
        if (r["p"], r["s"], r["n"], r["reps"]) != (2, 10, 50, grid["reps"]):
            return False, f"cell {i} has the wrong design"
        if not 0 <= r["retrieved"] <= r["reps"] - r["failures"] <= r["reps"]:
            return False, f"cell {i} counts are inconsistent"
        if not all(math.isfinite(r[k]) and r[k] >= 0.0 for k in _SIM_FLOAT[3:]):
            return False, f"cell {i} has a negative or non-finite error"
    return True, f"{len(rows)} cells pass the structural oracle"


# --------------------------------------------------------------------------
# depth-projection


def _depth_case(workdir: Path, key: int, params: dict, ref) -> Case:
    n, directions = params["n"], params["directions"]
    data = _rng(key, 3).standard_normal((n, 2))
    data_csv = workdir / "depth-data.csv"
    out = workdir / "depths.csv"
    _write_csv(data_csv, data)
    if ref is None:
        expected = depth_csv(_projection_self_depths(data, directions, key))
        expected_sha = hashlib.sha256(expected.encode()).hexdigest()
    else:
        expected_sha = ref["sha256"]

    def sha():
        return {"sha256": hashlib.sha256(out.read_bytes()).hexdigest()}

    def judge() -> Verdict:
        ok = sha()["sha256"] == expected_sha
        source = "oracle" if ref is None else "stored reference"
        detail = f"depth CSV {'matches' if ok else 'differs from'} the {source}"
        return Verdict(ok, 0 if ok else n, detail)

    return Case(
        key,
        args=["depth", "--input", str(data_csv), "--depth-method", "projection",
              "--directions", str(directions), "--seed", str(key),
              "--output", str(out)],
        outputs=[out], ops=n, op_name="query point",
        setup_code=_LOAD_CSV, setup_args=[str(data_csv)],
        judge=judge, summary=sha, reference=_source(ref),
    )


def depth_csv(depths) -> str:
    return "row_index,depth\n" + "".join(f"{i},{d:.4f}\n" for i, d in enumerate(depths))


def _projection_self_depths(data: np.ndarray, n_directions: int, seed: int) -> np.ndarray:
    """Projection depth of every row within the sample, by ranking.

    Draws the same seeded directions as the program (chunks of 512 normal
    vectors, normalized) but counts the closed tails of each projected point
    from its rank in the column instead of by binary search.
    """
    n, p = data.shape
    rng = np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK]))
    best = np.full(n, n + 1, dtype=np.int64)
    rows = np.arange(n)[:, None]
    remaining = n_directions
    while remaining > 0:
        chunk = min(remaining, 512)
        u = rng.standard_normal((chunk, p))
        norms = np.linalg.norm(u, axis=1)
        ok = norms > 0
        proj = data @ (u[ok] / norms[ok, None]).T
        order = np.argsort(proj, axis=0, kind="stable")
        srt = np.take_along_axis(proj, order, axis=0)
        lo = np.empty_like(order)   # first sorted position of the value
        hi = np.empty_like(order)   # one past its last sorted position
        new = np.vstack([np.ones((1, proj.shape[1]), bool), srt[1:] != srt[:-1]])
        end = np.vstack([srt[1:] != srt[:-1], np.ones((1, proj.shape[1]), bool)])
        first = np.where(new, rows, 0)
        np.maximum.accumulate(first, axis=0, out=first)
        last = np.where(end, rows + 1, n + 1)
        last = np.minimum.accumulate(last[::-1], axis=0)[::-1]
        np.put_along_axis(lo, order, first, axis=0)
        np.put_along_axis(hi, order, last, axis=0)
        counts = np.minimum(hi, n - lo).min(axis=1)
        np.minimum(best, counts, out=best)
        remaining -= chunk
    return best / n


# --------------------------------------------------------------------------
# set-up probes: interpreter start, ``import depthwl.cli`` and input parsing

_LOAD_CSV = ("import sys\n"
             "import depthwl.cli as cli\n"
             "cli.load_csv_dataset(sys.argv[1])\n")
_LOAD_GRID = ("import json, sys\n"
              "import depthwl.cli as cli\n"
              "with open(sys.argv[1]) as fh:\n"
              "    cli.GridConfig.from_dict(json.load(fh))\n")
