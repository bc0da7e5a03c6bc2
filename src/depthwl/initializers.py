"""Starting values for the multi-start reweighting iteration.

Two data-driven strategies: maximum likelihood fits of small random
subsamples (elemental sets, one RNG stream per draw), and a
deterministic initializer built from the deepest observation and the
covariance of the deepest half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .depth import DepthMethod, _as_depths, _rng, empirical_depths_all
from .gaussian import GaussianParams, _as_matrix, _blocks, _check_fit, _check_integer
from .gaussian import _fields, _mle_fits, _unstack
# Not called here: perfbench's tracer patches the MLE at this name.
from .gaussian import mle_fit  # noqa: F401

__all__ = [
    "InitSpec",
    "elemental_subsample_size",
    "subsample_inits",
    "depth_init",
]


def elemental_subsample_size(p: int) -> int:
    """Smallest subsample giving a generically nonsingular fit:
    p location parameters + p(p+1)/2 scatter parameters + 1."""
    return p + p * (p + 1) // 2 + 1


def subsample_inits(data, B: int, seed) -> list[GaussianParams]:
    """MLE fits of ``B`` random without-replacement elemental subsamples.

    Draw b uses its own RNG stream keyed by (seed, b).  A draw whose
    covariance is singular or overflows float64 is redrawn from the same
    stream, with a global budget of 100*B attempts, spent in draw order,
    before giving up ("too many singular subsamples").  Only when every
    first draw overflows is the overflow itself raised, as ``mle_fit``
    raises it: the data then need rescaling, not more draws.  ``seed``
    may be an int or a sequence of ints (callers embedding this in
    larger experiments pass composite keys).  The first draws are
    gathered and fitted one ``_blocks`` block at a time, with one
    stacked ``_mle_fits`` call each, and only the failed ones are
    redrawn; the result is bit for bit that of fitting the draws one by
    one.
    """
    data = _as_matrix(data)
    n, p = data.shape
    _check_integer("B", B, 1)
    size = elemental_subsample_size(p)
    if n < size:
        raise ValueError(f"need at least {size} observations for p={p}")
    def draw(rng):
        return rng.choice(n, size=size, replace=False)

    mu, sigma, chol = np.empty((B, p)), np.empty((B, p, p)), np.empty((B, p, p))
    for block in _blocks(B, size):
        rows = data[np.array([draw(_rng(seed, b)) for b in range(B)[block]])]
        mu[block], sigma[block], chol[block] = _mle_fits(rows)
    if not np.isfinite(sigma).all(axis=(1, 2)).any():
        _check_fit(sigma[0], chol[0])  # raises mle_fit's overflow error
    # Draw b's next attempt follows b first draws and every redraw so far.
    budget, redraws = 100 * B, 0
    exhausted = "too many singular subsamples; data may be degenerate"
    for b in np.flatnonzero(np.isnan(chol).any(axis=(1, 2))):
        rng = _rng(seed, b)
        draw(rng)  # the first draw, fitted above
        while np.isnan(chol[b]).any():
            if b + redraws >= budget:
                raise ValueError(exhausted)
            redraws += 1
            fit = _mle_fits(data[draw(rng)][None])
            mu[b], sigma[b], chol[b] = (a[0] for a in fit)
    if B + redraws > budget:
        raise ValueError(exhausted)
    return _unstack(mu, sigma, chol)


def depth_init(
    data,
    method: DepthMethod = DepthMethod(),
    depths: np.ndarray | None = None,
) -> GaussianParams:
    """Deterministic start: deepest observation and deep-half covariance.

    Location is the sample point of maximal empirical depth (ties go to
    the lowest row index).  Scatter is the covariance of the
    ceil(n/2) deepest rows, centered at that same deepest point so the
    two pieces describe one center.  Ties at the cutoff depth are
    resolved by row index.  ``depths``, the ``empirical_depths_all``
    of ``data`` under ``method``, may be passed to share them with the
    fit; it must be (n,) with every entry in [0, 1].
    """
    data = _as_matrix(data)
    n, p = data.shape
    depths = (empirical_depths_all(data, method) if depths is None
              else _as_depths("depths", depths, n))
    deepest = int(np.argmax(depths))
    k = (n + 1) // 2
    order = np.argsort(-depths, kind="stable")
    half = data[order[:k]]
    mu = data[deepest]
    diff = half - mu
    sigma = diff.T @ diff / k
    try:
        return GaussianParams(mu, 0.5 * (sigma + sigma.T))
    except ValueError:
        raise ValueError("covariance of the deepest half is singular") from None


# The JSON fields each init strategy takes besides ``strategy``.
_STRATEGY_FIELDS = {"subsample": ("B", "seed"), "depth_deterministic": (), "truth": (),
                    "custom": ("params_list",)}
# (JSON key, InitSpec field) of the strategy-specific fields.
_KEYS = (("B", "b"), ("seed", "seed"), ("params_list", "custom"))


@dataclass(frozen=True)
class InitSpec:
    """Declarative choice of starting values.

    strategy: "subsample" (B elemental fits), "depth_deterministic",
    "truth" (the generating parameters, supplied by the caller), or
    "custom" (explicit list of parameter sets).  ``b`` and ``seed``
    apply to "subsample" only, where unset (None) means 500 and 0, and
    ``custom`` to "custom" only; a field set on another strategy is
    rejected, so ``to_dict`` loses nothing.
    """

    strategy: str
    b: int | None = None
    seed: int | None = None
    custom: tuple | None = None

    def __post_init__(self):
        if self.strategy not in _STRATEGY_FIELDS:
            raise ValueError(f"unknown init strategy: {self.strategy!r}")
        applies = _STRATEGY_FIELDS[self.strategy]
        extra = [key for key, name in _KEYS
                 if getattr(self, name) is not None and key not in applies]
        if extra:
            raise ValueError(f"{extra} do not apply to the {self.strategy} strategy")
        if self.strategy == "subsample":
            object.__setattr__(self, "b", 500 if self.b is None else self.b)
            object.__setattr__(self, "seed", 0 if self.seed is None else self.seed)
            _check_integer("B", self.b, 1)
            _check_integer("seed", self.seed)
        if self.strategy == "custom" and not self.custom:
            raise ValueError("custom strategy requires at least one parameter set")

    def make_inits(
        self,
        data,
        depths: np.ndarray | None = None,
        truth: GaussianParams | None = None,
        seed_keys=None,
    ) -> list[GaussianParams]:
        """Materialize the starting values for one dataset.

        ``depths``, the ``empirical_depths_all`` of ``data``, back the
        depth start (computed under the default method when absent);
        ``seed_keys`` extends the subsample seed for embedding in a
        larger seeded experiment; ``truth`` backs the "truth" strategy.
        """
        if self.strategy == "subsample":
            keys = [self.seed] + list(seed_keys or [])
            return subsample_inits(data, self.b, keys)
        if self.strategy == "depth_deterministic":
            return [depth_init(data, depths=depths)]
        if self.strategy == "truth":
            if truth is None:
                raise ValueError("truth strategy requires known parameters")
            return [truth]
        return list(self.custom)

    def to_dict(self) -> dict:
        d: dict = {"strategy": self.strategy}
        if self.strategy == "subsample":
            d["B"] = self.b
            d["seed"] = self.seed
        elif self.strategy == "custom":
            d["params_list"] = [g.to_dict() for g in self.custom]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "InitSpec":
        d = _fields(d, ("strategy", *(key for key, _ in _KEYS)), required=("strategy",))
        kw = {name: d[key] for key, name in _KEYS if key in d}
        if kw.get("custom") is not None:
            kw["custom"] = tuple(GaussianParams.from_dict(g) for g in kw["custom"])
        return cls(d["strategy"], **kw)
