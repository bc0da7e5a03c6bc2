"""Starting values for the multi-start reweighting iteration.

Two data-driven strategies: maximum likelihood fits of small random
subsamples (elemental sets, one RNG stream per draw), and a
deterministic initializer built from the deepest observation and the
covariance of the deepest half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .depth import DepthMethod, _rng, empirical_depths_all, resolve_depth_method
from .gaussian import GaussianParams, mle_fit

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

    Draw b uses its own RNG stream keyed by (seed, b); a draw whose fit
    is singular is redrawn from the same stream, with a global budget
    of 100*B attempts before giving up.  ``seed`` may be an int or a
    sequence of ints (callers embedding this in larger experiments pass
    composite keys).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    n, p = data.shape
    if B < 1:
        raise ValueError("B must be >= 1")
    size = elemental_subsample_size(p)
    if n < size:
        raise ValueError(f"need at least {size} observations for p={p}")
    budget = 100 * B
    inits: list[GaussianParams] = []
    for b in range(B):
        rng = _rng(seed, b)
        while True:
            if budget <= 0:
                raise ValueError(
                    "too many singular subsamples; data may be degenerate"
                )
            budget -= 1
            idx = rng.choice(n, size=size, replace=False)
            try:
                inits.append(mle_fit(data[idx]))
            except ValueError:
                continue
            break
    return inits


def depth_init(
    data,
    method: DepthMethod | None = None,
    center: str = "deepest",
) -> GaussianParams:
    """Deterministic start: deepest observation and deep-half covariance.

    Location is the sample point of maximal empirical depth (ties go to
    the lowest row index).  Scatter is the covariance of the
    ceil(n/2) deepest rows, centered at that same deepest point so the
    two pieces describe one center; ``center="half-mean"`` centers at
    the deep-half mean instead.  Ties at the cutoff depth are resolved
    by row index.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    n, p = data.shape
    if center not in ("deepest", "half-mean"):
        raise ValueError("center must be 'deepest' or 'half-mean'")
    method = resolve_depth_method(method, p)
    depths = empirical_depths_all(data, method)
    deepest = int(np.argmax(depths))
    k = (n + 1) // 2
    order = np.argsort(-depths, kind="stable")
    half = data[order[:k]]
    mu = data[deepest]
    c = mu if center == "deepest" else half.mean(axis=0)
    diff = half - c
    sigma = diff.T @ diff / k
    try:
        return GaussianParams(mu, 0.5 * (sigma + sigma.T))
    except ValueError:
        raise ValueError("covariance of the deepest half is singular") from None


@dataclass(frozen=True)
class InitSpec:
    """Declarative choice of starting values.

    strategy: "subsample" (B elemental fits), "depth_deterministic",
    "truth" (params given here, or supplied by the caller when the
    experiment knows the generating values), or "custom" (explicit
    list of parameter sets).
    """

    strategy: str
    b: int = 500
    seed: int = 0
    params: GaussianParams | None = None
    custom: tuple = ()

    def __post_init__(self):
        if self.strategy not in ("subsample", "depth_deterministic", "truth", "custom"):
            raise ValueError(f"unknown init strategy: {self.strategy!r}")
        if self.strategy == "subsample" and self.b < 1:
            raise ValueError("B must be >= 1")
        if self.strategy == "custom" and not self.custom:
            raise ValueError("custom strategy requires at least one parameter set")

    def make_inits(
        self,
        data,
        depth_method: DepthMethod | None = None,
        truth: GaussianParams | None = None,
        seed_keys=None,
    ) -> list[GaussianParams]:
        """Materialize the starting values for one dataset.

        ``seed_keys`` extends the subsample seed for embedding in a
        larger seeded experiment; ``truth`` backs the "truth" strategy
        when no explicit params were stored.
        """
        if self.strategy == "subsample":
            keys = [self.seed] + list(seed_keys or [])
            return subsample_inits(data, self.b, keys)
        if self.strategy == "depth_deterministic":
            return [depth_init(data, depth_method)]
        if self.strategy == "truth":
            params = self.params if self.params is not None else truth
            if params is None:
                raise ValueError("truth strategy requires known parameters")
            return [params]
        return list(self.custom)

    def to_dict(self) -> dict:
        d: dict = {"strategy": self.strategy}
        if self.strategy == "subsample":
            d["B"] = self.b
            d["seed"] = self.seed
        elif self.strategy == "truth" and self.params is not None:
            d["params"] = self.params.to_dict()
        elif self.strategy == "custom":
            d["params_list"] = [g.to_dict() for g in self.custom]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "InitSpec":
        strategy = d["strategy"]
        if strategy == "depth":
            strategy = "depth_deterministic"
        if strategy == "subsample":
            return cls("subsample", b=int(d.get("B", 500)), seed=int(d.get("seed", 0)))
        if strategy == "truth":
            params = d.get("params")
            return cls(
                "truth",
                params=None if params is None else GaussianParams.from_dict(params),
            )
        if strategy == "custom":
            return cls(
                "custom",
                custom=tuple(GaussianParams.from_dict(g) for g in d["params_list"]),
            )
        return cls(strategy)
