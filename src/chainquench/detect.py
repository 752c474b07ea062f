"""Late-time trajectory classification: saturation versus logarithmic change.

A disorder-averaged quantity is fitted to y = a - b*log(t) (natural log)
on a late-time window. A slope indistinguishable from zero means the
quantity has saturated, the non-interacting localization signature; a
significant slope means slow logarithmic drift, the interacting one.
`fit_log` fits one pair of time and value arrays; which quantity the values
are is the caller's choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_ABS_TOL = 1e-3
DEFAULT_SIG = 3.0

SATURATED = "Saturated"
LOG_DECAY = "LogDecay"
LOG_GROWTH = "LogGrowth"


@dataclass(frozen=True)
class FitWindow:
    """Closed time interval the fit is restricted to."""

    t_low: float
    t_high: float

    def __post_init__(self) -> None:
        for name, bound in (("t_low", self.t_low), ("t_high", self.t_high)):
            if not np.isfinite(bound):
                raise ValueError(f"{name} must be finite, got {bound}")
        if not self.t_low < self.t_high:
            raise ValueError(f"need t_low < t_high, got ({self.t_low}, {self.t_high})")


@dataclass(frozen=True)
class FitResult:
    a: float
    b: float
    b_stderr: float
    rms_residual: float
    label: str
    n_points: int


def last_decade(times: np.ndarray) -> FitWindow:
    """Default fit region: the last decade of the grid."""
    t_max = float(np.asarray(times)[-1])
    return FitWindow(t_low=t_max / 10.0, t_high=t_max)


def _label(b: float, b_stderr: float, abs_tol: float, sig: float) -> str:
    if abs(b) < abs_tol or abs(b) < sig * b_stderr:
        return SATURATED
    return LOG_DECAY if b > 0 else LOG_GROWTH


def fit_log(
    times: np.ndarray,
    values: np.ndarray,
    window: FitWindow,
    abs_tol: float = DEFAULT_ABS_TOL,
    sig: float = DEFAULT_SIG,
) -> FitResult:
    """Ordinary least squares of `values` against -log(`times`) in-window.

    `abs_tol` and `sig` must be finite and nonnegative.
    """
    for name, bound in (("abs_tol", abs_tol), ("sig", sig)):
        if not (np.isfinite(bound) and bound >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {bound}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)

    inside = (times >= window.t_low) & (times <= window.t_high)
    m = int(inside.sum())
    if m < 5:
        raise ValueError(
            f"window [{window.t_low}, {window.t_high}] contains {m} grid points, need >= 5"
        )
    earliest = float(times[inside].min())
    if earliest <= 0:
        raise ValueError(f"fit window holds t = {earliest}, but log(t) needs t > 0")
    x = -np.log(times[inside])
    y = values[inside]
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite values inside the fit window")

    design = np.column_stack([np.ones(m), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    a, b = float(coef[0]), float(coef[1])
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = y - design @ coef
        ss_res = float(residuals @ residuals)
    if not np.isfinite(ss_res):
        raise ValueError(f"residual sum of squares is {ss_res}: values too large to fit")
    sigma2 = ss_res / (m - 2)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    b_stderr = float(np.sqrt(cov[1, 1]))
    rms = float(np.sqrt(ss_res / m))
    return FitResult(a=a, b=b, b_stderr=b_stderr, rms_residual=rms,
                     label=_label(b, b_stderr, abs_tol, sig), n_points=m)
