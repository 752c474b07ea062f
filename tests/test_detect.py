import numpy as np
import pytest

from chainquench.detect import FitWindow, _label, fit_log, last_decade


def _grid(n=61, t_min=0.1, t_max=1000.0):
    return np.logspace(np.log10(t_min), np.log10(t_max), n)


def test_noiseless_recovery_is_exact():
    times = _grid()
    fit = fit_log(times, 0.7 - 0.03 * np.log(times), FitWindow(1.0, 1000.0))
    assert fit.a == pytest.approx(0.7, abs=1e-10)
    assert fit.b == pytest.approx(0.03, abs=1e-10)
    assert fit.rms_residual < 1e-12
    assert fit.label == "LogDecay"


def test_constant_trajectory_is_saturated():
    times = _grid()
    fit = fit_log(times, np.full_like(times, 0.5), last_decade(times))
    assert abs(fit.b) < 1e-12
    assert fit.label == "Saturated"


def test_noisy_recovery_within_error_bars():
    times = _grid(n=200)
    window = FitWindow(1.0, 1000.0)
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(30):
        y = 0.7 - 0.03 * np.log(times) + rng.normal(0.0, 1e-3, len(times))
        fit = fit_log(times, y, window)
        if abs(fit.b - 0.03) <= 3.0 * fit.b_stderr:
            hits += 1
    assert hits >= 28  # 3-sigma band should capture nearly every draw


def test_affine_equivariance():
    times = _grid()
    rng = np.random.default_rng(3)
    y = 0.4 - 0.01 * np.log(times) + rng.normal(0.0, 1e-4, len(times))
    window = last_decade(times)
    base = fit_log(times, y, window)
    # powers of two rescale floating point results exactly
    scaled = fit_log(times, 4.0 * y, window)
    assert scaled.a == 4.0 * base.a
    assert scaled.b == 4.0 * base.b
    assert scaled.b_stderr == 4.0 * base.b_stderr
    generic = fit_log(times, 1.7 * y, window)
    assert generic.b == pytest.approx(1.7 * base.b, rel=1e-12)


def test_label_invariant_under_rescaling():
    times = _grid()
    y = 0.4 - 0.01 * np.log(times)
    window = last_decade(times)
    for c in (0.5, 2.0, 10.0):
        base = fit_log(times, y, window, abs_tol=1e-3)
        scaled = fit_log(times, c * y, window, abs_tol=c * 1e-3)
        assert base.label == scaled.label


def test_classify_rules():
    assert _label(1e-6, 0.0, abs_tol=1e-4, sig=3.0) == "Saturated"
    assert _label(0.02, 0.001, abs_tol=1e-4, sig=3.0) == "LogDecay"
    assert _label(-0.02, 0.001, abs_tol=1e-4, sig=3.0) == "LogGrowth"
    assert _label(0.002, 0.01, abs_tol=1e-4, sig=3.0) == "Saturated"  # not significant


def test_non_finite_data_in_window_rejected():
    times = _grid()
    y = np.full_like(times, 0.5)
    y[-1] = np.nan
    with pytest.raises(ValueError):
        fit_log(times, y, last_decade(times))
    y[-1] = np.inf
    with pytest.raises(ValueError):
        fit_log(times, y, last_decade(times))
    # values outside the window do not enter the fit
    y[-1] = 0.5
    y[0] = np.nan
    assert fit_log(times, y, last_decade(times)).label == "Saturated"
    # nor may a time at or below 0, where log(t) is undefined
    zero_start = np.concatenate([[0.0], times])
    with pytest.raises(ValueError, match="log"):
        fit_log(zero_start, np.full_like(zero_start, 0.5), FitWindow(0.0, 1000.0))
    with pytest.raises(ValueError, match="log"):
        fit_log(zero_start - 1.0, np.full_like(zero_start, 0.5), FitWindow(-1.0, 999.0))


def test_window_validation():
    times = _grid(n=10, t_min=1.0, t_max=10.0)
    values = np.ones_like(times)
    with pytest.raises(ValueError):
        fit_log(times, values, FitWindow(9.0, 10.0))  # too few points
    with pytest.raises(ValueError):
        FitWindow(5.0, 5.0)
    # the label thresholds are finite and nonnegative
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="abs_tol"):
            fit_log(times, values, FitWindow(1.0, 10.0), abs_tol=bad)
        with pytest.raises(ValueError, match="sig"):
            fit_log(times, values, FitWindow(1.0, 10.0), sig=bad)


def test_last_decade_window():
    window = last_decade(_grid())
    assert window.t_low == pytest.approx(100.0)
    assert window.t_high == pytest.approx(1000.0)
