"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The disorder master seed is fixed once for the whole suite and was
chosen before any results were inspected.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg

from chainquench.cli import main as cli_main
from chainquench.detect import LOG_DECAY, SATURATED, FitWindow, fit_log, last_decade
from chainquench.evolve import TimeGrid, propagate
from chainquench.experiment import (
    make_default_config,
    realization_seed,
    run_experiment,
    run_sweep,
)
from chainquench.hamiltonian import ChainParams, build_hamiltonian, sample_disorder
from chainquench.quantifiers import (
    coherence_l1,
    entanglement_l1,
    global_quantifiers,
    local_quantifiers,
    measurement_cost,
    partial_trace,
    predictability_l1,
)
from chainquench.states import BlockState, max_coherent, neel, w_state

from _oracles import (
    blocks_from_dense,
    dense_amplitudes,
    dense_hamiltonian,
    dense_partial_trace,
    quantifiers_from_rho,
    random_density_matrix,
    random_pure_state,
)

MASTER_SEED = 20240301
# worker pool of the heavy sweeps; each worker runs eigh on one BLAS thread
WORKERS = 2


def _report(number: int, ok: bool, detail: str) -> None:
    # run pytest with -s to see these lines for passing criteria too
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


# --------------------------------------------------------------------------
# shared heavy runs


@pytest.fixture(scope="module")
def fig2_records():
    """N=12, W=2, Neel, r=50, global mode, paired disorder across g."""
    base = make_default_config(
        n_sites=12,
        W=2.0,
        initial_state="neel",
        mode="global",
        realizations=50,
        master_seed=MASTER_SEED,
    )
    rec_al, rec_int = run_sweep(base, [2.0], [0.0, 1.0], n_workers=WORKERS)
    return rec_al, rec_int


# --------------------------------------------------------------------------
# criteria


def test_criterion_01_ccr_identity():
    rng = np.random.default_rng(MASTER_SEED)
    start = time.perf_counter()
    worst_gap = 0.0
    worst_e = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 17))
        rho = random_density_matrix(rng, d)
        c = coherence_l1(rho)
        p = predictability_l1(rho)
        e = entanglement_l1(rho)
        worst_gap = max(worst_gap, abs(c + p + e - (d - 1)))
        worst_e = min(worst_e, e)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-9 and worst_e >= -1e-10 and elapsed < 5.0
    _report(1, ok, f"CCR identity on 1000 random density matrices, "
                   f"max |C+P+E-(d-1)| = {worst_gap:.2e}, min E = {worst_e:.2e}, {elapsed:.2f} s")
    assert worst_gap <= 1e-9
    assert worst_e >= -1e-10
    assert elapsed < 5.0


def test_criterion_02_strict_cr_pure_states():
    rng = np.random.default_rng(MASTER_SEED + 1)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        n = 1 + i % 8
        state = blocks_from_dense(random_pure_state(rng, 1 << n), n)
        trip = global_quantifiers(state)
        worst = max(worst, abs(trip.C + trip.P - 1.0))
        assert trip.E == 0.0
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(2, ok, f"strict C+P=1 on 1000 random pure states (N<=8), "
                   f"max |C+P-1| = {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_03_small_chain_oracle_equivalence():
    n = 6
    params = ChainParams(n_sites=n, J=1.0, W=3.0, g=1.0)
    grid = TimeGrid(0.1, 1000.0, 10)
    psi0 = neel(n)
    ((sector0, amps0),) = psi0.blocks
    scale_global = (1 << n) - 1
    worst = 0.0
    start = time.perf_counter()
    for k in range(20):
        eps = sample_disorder(n, realization_seed(MASTER_SEED, k))
        series = propagate(build_hamiltonian(params, eps, sector0), amps0, grid.times)

        dense_h = dense_hamiltonian(n, params.J, params.W, params.g, eps)
        psi_dense0 = dense_amplitudes(psi0)
        for j, t in enumerate(grid.times):
            psi_t = BlockState(n_sites=n, blocks=((sector0, series[j]),))
            vec = scipy.linalg.expm(-1j * dense_h * t) @ psi_dense0
            rho = np.outer(vec, vec.conj())

            trip = global_quantifiers(psi_t)
            ref_c, ref_p, _ = quantifiers_from_rho(rho)
            worst = max(worst, abs(trip.C - ref_c / scale_global))
            worst = max(worst, abs(trip.P - ref_p / scale_global))

            loc = local_quantifiers(psi_t, 2)
            c = p = e = 0.0
            for first in range(1, n):
                rc, rp, re = quantifiers_from_rho(dense_partial_trace(vec, n, [first, first + 1]))
                c, p, e = c + rc, p + rp, e + re
            win_scale = 3.0 * (n - 1)
            worst = max(worst, abs(loc.C - c / win_scale))
            worst = max(worst, abs(loc.P - p / win_scale))
            worst = max(worst, abs(loc.E - e / win_scale))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(3, ok, f"sector pipeline vs dense 64-dim brute force (20 realizations, "
                   f"10 times), max deviation = {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_04_two_site_analytic():
    from chainquench.hilbert import enumerate_sector

    sector = enumerate_sector(2, 1)
    params = ChainParams(n_sites=2, J=1.0, W=0.0, g=0.0)
    H = build_hamiltonian(params, sample_disorder(2, 0), sector)
    amps0 = np.array([1.0 + 0j, 0.0])
    grid = TimeGrid(0.1, 1000.0, 50)
    series = propagate(H, amps0, grid.times)
    worst = 0.0
    for j, t in enumerate(grid.times):
        trip = global_quantifiers(BlockState(n_sites=2, blocks=((sector, series[j]),)))
        worst = max(worst, abs(trip.C - abs(np.sin(2 * t)) / 3.0))
        worst = max(worst, abs(trip.P - (1.0 - abs(np.sin(2 * t)) / 3.0)))
    ok = worst <= 1e-9
    _report(4, ok, f"two-site Rabi coherence |sin(2t)|/3 over 50 grid times, "
                   f"max deviation = {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_05_conservation_suite():
    grid = TimeGrid()
    cases = [
        ("neel N=12 W=2 g=0", neel(12), ChainParams(n_sites=12, J=1.0, W=2.0, g=0.0)),
        ("neel N=12 W=2 g=1", neel(12), ChainParams(n_sites=12, J=1.0, W=2.0, g=1.0)),
        ("w_state N=12 W=10 g=1", w_state(12), ChainParams(n_sites=12, J=1.0, W=10.0, g=1.0)),
        ("max_coherent N=8 W=6 g=1", max_coherent(8), ChainParams(n_sites=8, J=1.0, W=6.0, g=1.0)),
    ]
    worst_norm = worst_energy = worst_number = 0.0
    for label, psi0, params in cases:
        eps = sample_disorder(params.n_sites, realization_seed(MASTER_SEED, 0))
        blocks = psi0.blocks
        series = []
        h_norm = 0.0
        e0_total = 0.0
        for sector, amps in blocks:
            H = build_hamiltonian(params, eps, sector)
            h_norm = max(h_norm, float(np.max(np.abs(np.linalg.eigvalsh(H)))) or 1.0)
            e0_total += float(np.real(amps.conj() @ H @ amps))
            series.append((H, propagate(H.copy(), amps, grid.times)))
        weights0 = [float(np.sum(np.abs(a) ** 2)) for _, a in blocks]
        for j in range(grid.n_points):
            cols = [arr[j] for _, arr in series]
            norms = [float(np.sum(np.abs(c) ** 2)) for c in cols]
            worst_norm = max(worst_norm, abs(sum(norms) - 1.0))
            energy = sum(float(np.real(c.conj() @ H @ c)) for (H, _), c in zip(series, cols))
            worst_energy = max(worst_energy, abs(energy - e0_total) / h_norm)
            worst_number = max(worst_number, max(abs(nj - w0) for nj, w0 in zip(norms, weights0)))
    ok = worst_norm < 1e-8 and worst_energy < 1e-8 and worst_number < 1e-8
    _report(5, ok, f"conservation across full grid: max norm drift {worst_norm:.2e}, "
                   f"relative energy drift {worst_energy:.2e}, block weight drift {worst_number:.2e}")
    assert worst_norm < 1e-8
    assert worst_energy < 1e-8
    assert worst_number < 1e-8


def test_criterion_06_w_state_interaction_independence():
    base = make_default_config(
        n_sites=12,
        W=10.0,
        initial_state="w_state",
        mode="global",
        realizations=10,
        master_seed=MASTER_SEED,
    )
    rec0, rec1 = run_sweep(base, [10.0], [0.0, 1.0], n_workers=WORKERS)
    gap = max(
        float(np.max(np.abs(rec0.c_mean - rec1.c_mean))),
        float(np.max(np.abs(rec0.p_mean - rec1.p_mean))),
        float(np.max(np.abs(rec0.e_mean - rec1.e_mean))),
    )
    ok = gap <= 1e-10
    _report(6, ok, f"W state N=12, W=10, r=10 paired seeds: max |g=0 - g=1| = {gap:.2e}")
    assert gap <= 1e-10


@pytest.mark.slow
def test_criterion_07_weak_disorder_classification():
    # N=14: at N=12 the weak-disorder interacting drift ends near t ~ 100,
    # before the last-decade window; at N=14 it reaches the window
    base = make_default_config(
        n_sites=14,
        W=2.0,
        initial_state="neel",
        mode="global",
        realizations=50,
        master_seed=MASTER_SEED,
    )
    rec_al, rec_int = run_sweep(base, [2.0], [0.0, 1.0], n_workers=WORKERS)
    window = last_decade(rec_al.times)
    fit_al = fit_log(rec_al.times, rec_al.p_mean, window)
    fit_int = fit_log(rec_int.times, rec_int.p_mean, window)
    ok = (
        fit_al.label == SATURATED
        and fit_int.label == LOG_DECAY
        and fit_int.b > 0
        and fit_int.b > 3.0 * fit_int.b_stderr
    )
    _report(
        7,
        ok,
        f"N=14 W=2 r=50 last-decade P fits: AL b={fit_al.b:+.2e}"
        f" ({fit_al.b / max(fit_al.b_stderr, 1e-30):.1f} sigma, {fit_al.label}); "
        f"interacting b={fit_int.b:+.2e} ({fit_int.b / max(fit_int.b_stderr, 1e-30):.1f} sigma, "
        f"{fit_int.label})",
    )
    assert fit_al.label == SATURATED, f"AL run not saturated: {fit_al}"
    assert fit_int.label == LOG_DECAY and fit_int.b > 0 and fit_int.b > 3 * fit_int.b_stderr, (
        f"interacting run not a significant logarithmic decrease in the last decade: {fit_int}"
    )


@pytest.mark.slow
def test_criterion_08_robustness_across_disorder():
    base = make_default_config(
        n_sites=12,
        W=6.0,
        initial_state="neel",
        mode="global",
        realizations=25,
        master_seed=MASTER_SEED,
    )
    records = run_sweep(base, [6.0, 10.0], [0.0, 1.0], n_workers=WORKERS)
    outcomes = []
    for rec in records:
        fit = fit_log(rec.times, rec.p_mean, last_decade(rec.times))
        outcomes.append((rec.config.chain.W, rec.config.chain.g, fit))
    expected = {0.0: SATURATED, 1.0: LOG_DECAY}
    ok = all(fit.label == expected[g] for _, g, fit in outcomes)
    detail = "; ".join(
        f"W={w:g} g={g:g}: b={fit.b:+.2e} ({fit.b / max(fit.b_stderr, 1e-30):.1f} sigma, {fit.label})"
        for w, g, fit in outcomes
    )
    _report(8, ok, f"r=25 last-decade P fits: {detail}")
    for w, g, fit in outcomes:
        assert fit.label == expected[g], (
            f"W={w} g={g}: expected {expected[g]}, got {fit.label} (b={fit.b:.2e}, "
            f"stderr={fit.b_stderr:.2e})"
        )


@pytest.mark.slow
def test_criterion_09_bipartite_cancellation():
    config = make_default_config(
        n_sites=12,
        W=2.0,
        g=1.0,
        initial_state="neel",
        mode="local",
        window=2,
        realizations=50,
        master_seed=MASTER_SEED,
    )
    record = run_experiment(config, n_workers=WORKERS)
    window = last_decade(record.times)
    fits = {
        q: fit_log(record.times, values, window)
        for q, values in (("C", record.c_mean), ("P", record.p_mean), ("E", record.e_mean))
    }
    ok = abs(fits["P"].b) < abs(fits["C"].b) and abs(fits["P"].b) < abs(fits["E"].b)
    _report(9, ok, f"2-site window slopes at N=12 W=2 g=1: |b_P|={abs(fits['P'].b):.2e} vs "
                   f"|b_C|={abs(fits['C'].b):.2e}, |b_E|={abs(fits['E'].b):.2e}")
    assert abs(fits["P"].b) < abs(fits["C"].b)
    assert abs(fits["P"].b) < abs(fits["E"].b)


def test_criterion_10_measurement_budget():
    ok = True
    for n in range(1, 13):
        ok = ok and measurement_cost(n, "P") == n
        ok = ok and measurement_cost(n, "C") == 4**n
    _report(10, ok, "cost(N, P) = N and cost(N, C) = 4^N for N = 1..12, exact")
    for n in range(1, 13):
        assert measurement_cost(n, "P") == n
        assert measurement_cost(n, "C") == 4**n


def test_criterion_11_thread_count_determinism(tmp_path):
    config = {
        "n_sites": 6,
        "J": 1.0,
        "W": 3.0,
        "g": 1.0,
        "initial_state": "neel",
        "mode": "global",
        "time_grid": {"t_min": 0.1, "t_max": 1000.0, "n_points": 21},
        "realizations": 4,
        "master_seed": MASTER_SEED,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    digests = []
    for threads in (1, 2, 4):
        out = tmp_path / f"threads{threads}"
        code = cli_main(
            ["run", "--config", str(cfg_path), "--out-dir", str(out), "--threads", str(threads)]
        )
        assert code == 0
        digests.append((out / "trajectory.csv").read_bytes())
    ok = digests[0] == digests[1] == digests[2]
    _report(11, ok, "CSV outputs byte-identical for --threads 1, 2, 4")
    assert digests[0] == digests[1] == digests[2]


# --------------------------------------------------------------------------
# supplementary diagnostic (not a numbered criterion)


def test_supplementary_log_drift_in_active_window(fig2_records):
    """Qualitative check on a window that covers the drift regime.

    At N=12 the weak-disorder interacting drift largely ends by t ~ 100,
    so the last-decade window sits mostly past it; that is why criterion 7
    runs at N=14, where the drift reaches the window. Over [10, 1000] the
    N=12 interacting slope is strongly significant while the
    non-interacting one is consistent with zero.
    """
    rec_al, rec_int = fig2_records
    window = FitWindow(10.0, 1000.0)
    fit_al = fit_log(rec_al.times, rec_al.p_mean, window)
    fit_int = fit_log(rec_int.times, rec_int.p_mean, window)
    print(
        f"\n[supplementary] [10,1000] P fits: AL b={fit_al.b:+.2e} "
        f"({fit_al.b / max(fit_al.b_stderr, 1e-30):.1f} sigma), "
        f"interacting b={fit_int.b:+.2e} ({fit_int.b / max(fit_int.b_stderr, 1e-30):.1f} sigma)",
        flush=True,
    )
    assert fit_int.b > 0
    assert fit_int.b > 3.0 * fit_int.b_stderr
    assert abs(fit_al.b) < 3.0 * fit_al.b_stderr
