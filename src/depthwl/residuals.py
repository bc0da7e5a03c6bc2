"""Depth Pearson residuals and downweighting.

A depth Pearson residual compares the empirical depth of an
observation with its depth under the fitted model,

    tau = (d_emp - d_model) / d_model**alpha,

so tau is zero when the sample agrees with the model at that point and
grows when it does not.  Weights map residuals to [0, 1]; the trimming
rule additionally zeroes any weight whose residual exceeds the sample
median of the residuals by more than ``xi``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import _check_real, _fields

__all__ = [
    "WeightSpec",
    "dpr",
    "weight",
    "apply_trim",
]

# The residual exponent alpha wherever none is given.
_DEFAULT_ALPHA = 0.5

# Weight parameters minimizing the 95% error quantile in the original
# calibration study, keyed by the residual exponent alpha:
# (gamma, delta1, delta2, xi).
_OPTIMAL = {
    0.25: (0.1, 2.0, 3.0, 1.0),
    0.5: (0.3, 2.0, 9.0, 1.0),
    0.75: (0.3, 2.0, 9.0, 5.0),
    1.0: (0.3, 2.0, 9.0, 5.0),
}

_SHAPE_FIELDS = ("delta1", "delta2", "gamma", "a")


def _check_alpha(alpha) -> None:
    """Raise ValueError unless ``alpha`` is a real number in (0, 1]."""
    _check_real("alpha", alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


@dataclass(frozen=True)
class WeightSpec:
    """Residual exponent, weight family and trimming constant.

    ``alpha`` is the exponent of the model depth in the residual (see
    ``dpr``), in (0, 1]: general theory covers alpha < 3/4; for the
    Gaussian family every moment is finite and exponents up to 1 remain
    valid.

    piecewise: w(tau) = (h(tau) + gamma) / (1 + gamma) with h equal to
    1 up to delta1, decreasing linearly to 0 at delta2, and 0 beyond;
    the floor gamma/(1+gamma) keeps every untrimmed weight positive.

    smooth_exp: w(tau) = exp(-a * tau**2), smooth with w(0)=1, w'(0)=0.

    ``trim_xi`` is the margin above the residual median beyond which
    weights are hard-zeroed.  Any positive value (including inf, which
    disables trimming) is accepted; 1 is the calibrated default for
    alpha <= 0.5.
    """

    family: str
    delta1: float | None = None
    delta2: float | None = None
    gamma: float | None = None
    a: float | None = None
    trim_xi: float = 1.0
    alpha: float = _DEFAULT_ALPHA

    def __post_init__(self):
        for name in (*_SHAPE_FIELDS, "trim_xi"):
            if getattr(self, name) is not None:
                _check_real(name, getattr(self, name))
        if self.family == "piecewise":
            if self.delta1 is None or self.delta2 is None or self.gamma is None:
                raise ValueError("piecewise family requires delta1, delta2, gamma")
            if not 0.0 < self.delta1 < self.delta2:
                raise ValueError("piecewise family requires 0 < delta1 < delta2")
            if self.gamma < 0.0:
                raise ValueError("gamma must be >= 0")
            if self.a is not None:
                raise ValueError("'a' does not apply to the piecewise family")
        elif self.family == "smooth_exp":
            if self.a is None or self.a < 0.0:
                raise ValueError("smooth_exp family requires a >= 0")
            if any(v is not None for v in (self.delta1, self.delta2, self.gamma)):
                raise ValueError("delta1/delta2/gamma do not apply to smooth_exp")
        else:
            raise ValueError(f"unknown weight family: {self.family!r}")
        if not self.trim_xi > 0.0:
            raise ValueError("trim_xi must be positive")
        _check_alpha(self.alpha)

    @classmethod
    def piecewise(cls, delta1: float, delta2: float, gamma: float,
                  trim_xi: float = 1.0, alpha: float = _DEFAULT_ALPHA) -> "WeightSpec":
        return cls("piecewise", delta1=delta1, delta2=delta2, gamma=gamma,
                   trim_xi=trim_xi, alpha=alpha)

    @classmethod
    def smooth_exp(cls, a: float, trim_xi: float = 1.0,
                   alpha: float = _DEFAULT_ALPHA) -> "WeightSpec":
        return cls("smooth_exp", a=a, trim_xi=trim_xi, alpha=alpha)

    @classmethod
    def optimal(cls, alpha: float = _DEFAULT_ALPHA) -> "WeightSpec":
        """Calibrated piecewise parameters for the given exponent.

        Exact table entries exist for alpha in {0.25, 0.5, 0.75, 1};
        other exponents keep their own value and take the parameters of
        the nearest tabulated one.
        """
        _check_alpha(alpha)
        key = min(_OPTIMAL, key=lambda t: abs(t - alpha))
        gamma, d1, d2, xi = _OPTIMAL[key]
        return cls.piecewise(d1, d2, gamma, trim_xi=xi, alpha=alpha)

    def to_dict(self) -> dict:
        """Wire format: family, trimming constant, exponent, then the
        shape fields that apply to the family."""
        d = {"family": self.family, "xi": self.trim_xi, "alpha": self.alpha}
        d.update((k, getattr(self, k)) for k in _SHAPE_FIELDS if getattr(self, k) is not None)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "WeightSpec":
        """Inverse of ``to_dict``; the constructor judges every value.
        A shape field that is null counts as absent, and ``xi`` null or
        ``"inf"`` disables trimming.  Any other key raises ValueError."""
        d = _fields(d, ("family", "xi", "alpha", *_SHAPE_FIELDS), required=("family", "alpha"))
        kw = {k: d[k] for k in _SHAPE_FIELDS if d.get(k) is not None}
        if "xi" in d:
            kw["trim_xi"] = float("inf") if d["xi"] in ("inf", None) else d["xi"]
        return cls(d["family"], alpha=d["alpha"], **kw)


def dpr(d_emp, d_model, alpha: float):
    """Depth Pearson residual (d_emp - d_model) / d_model**alpha.

    ``alpha`` must lie in (0, 1], as ``WeightSpec`` requires.
    ``d_model`` must be strictly positive: the Gaussian population
    depth is positive everywhere, so a nonpositive value signals an
    upstream bug rather than a data condition.
    """
    _check_alpha(alpha)
    d_emp = np.asarray(d_emp, dtype=np.float64)
    d_model = np.asarray(d_model, dtype=np.float64)
    if np.any(d_model <= 0.0):
        raise ValueError("model depth must be strictly positive")
    if np.any(d_emp < 0.0):
        raise ValueError("empirical depth must be nonnegative")
    out = (d_emp - d_model) / d_model**alpha
    return float(out) if out.ndim == 0 else out


def weight(tau, spec: WeightSpec):
    """Evaluate the weight function of ``spec`` at residual(s) ``tau``."""
    tau = np.asarray(tau, dtype=np.float64)
    if spec.family == "piecewise":
        h = np.where(
            tau > spec.delta2,
            0.0,
            np.where(
                tau > spec.delta1,
                (spec.delta2 - tau) / (spec.delta2 - spec.delta1),
                1.0,
            ),
        )
        out = (h + spec.gamma) / (1.0 + spec.gamma)
    elif spec.a == 0.0:
        out = np.ones_like(tau)
    else:
        # tau**2 overflows for |tau| beyond ~1.3e154, which far outliers
        # reach when alpha > 0.5; exp(-a * inf) is then the right 0.
        with np.errstate(over="ignore"):
            out = np.exp(-spec.a * tau**2)
    return float(out) if out.ndim == 0 else out


def apply_trim(tau, w, xi: float):
    """Zero the weights of residuals exceeding median(tau) + xi.

    The median of an even-length vector is the midpoint of the two
    central order statistics.  Entries at or below the threshold are
    returned unchanged, so at least half the weights always survive.
    A 2-D ``tau`` (with ``w`` of its shape) is trimmed row by row, each
    row against its own median, every row bit for bit its 1-D call.
    """
    tau = np.asarray(tau, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if tau.size == 0:
        raise ValueError("empty residual vector")
    if tau.shape != w.shape:
        raise ValueError("residual and weight vectors must have equal length")
    if not xi > 0.0:
        raise ValueError("xi must be positive")
    # np.median's rule, bit for bit, from one partition: the middle order
    # statistic or the midpoint of the two middle ones, NaN if any entry
    # is NaN (a partition puts NaNs last).
    n = tau.shape[-1]
    half = n // 2
    part = np.partition(tau, (half, -1) if n % 2 else (half - 1, half, -1), axis=-1)
    median = part[..., half] if n % 2 else 0.5 * (part[..., half - 1] + part[..., half])
    median = np.where(np.isnan(part[..., -1]), part[..., -1], median)
    return np.where(tau <= median[..., None] + xi, w, 0.0)
