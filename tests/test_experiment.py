import json
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from chainquench import experiment
from chainquench.blas import blas_threads, one_blas_thread, openblas
from chainquench.cli import config_to_dict, main
from chainquench.evolve import TimeGrid, propagate
from chainquench.experiment import (
    make_default_config,
    realization_seed,
    run_experiment,
    run_sweep,
)
from chainquench.hamiltonian import build_hamiltonian, sample_disorder
from chainquench.quantifiers import global_quantifiers, local_quantifiers
from chainquench.states import BlockState, neel


def _small_config(**overrides):
    defaults = dict(
        n_sites=6,
        W=3.0,
        g=1.0,
        initial_state="neel",
        realizations=3,
        master_seed=101,
        grid=TimeGrid(0.1, 100.0, 13),
    )
    defaults.update(overrides)
    return make_default_config(**defaults)


def test_single_realization_has_zero_sem():
    record = run_experiment(_small_config(realizations=1))
    assert np.all(record.c_sem == 0.0)
    assert np.all(record.p_sem == 0.0)
    assert len(record.seeds) == 1


def test_rerun_is_identical():
    config = _small_config()
    a = run_experiment(config)
    b = run_experiment(config)
    assert np.array_equal(a.c_mean, b.c_mean)
    assert np.array_equal(a.p_sem, b.p_sem)
    assert a.seeds == b.seeds


def test_worker_count_does_not_change_results():
    config = _small_config(realizations=4)
    serial = run_experiment(config, n_workers=1)
    threaded = run_experiment(config, n_workers=3)
    assert np.array_equal(serial.c_mean, threaded.c_mean)
    assert np.array_equal(serial.e_mean, threaded.e_mean)
    assert serial.seeds == threaded.seeds


# A serial run whose largest matrix is below blas.ONE_THREAD_BELOW (462)
# states runs on one BLAS thread, as a pool does: N=10 (D=252) runs give the
# same bits either way, while N=12 Neel (D=924) keeps the library's count
needs_openblas = pytest.mark.skipif(openblas() is None, reason="OpenBLAS not found")


def _fields(record):
    return (record.c_mean, record.c_sem, record.p_mean, record.p_sem, record.e_mean, record.e_sem)


@needs_openblas
def test_pooled_run_equals_default_serial_run():
    config = _small_config(n_sites=10, realizations=2)
    serial = run_experiment(config)
    pooled = run_experiment(config, n_workers=2)
    assert (serial.workers, pooled.workers) == (1, 2)
    assert serial.blas_threads == pooled.blas_threads == 1
    for a, b in zip(_fields(serial), _fields(pooled)):
        assert np.array_equal(a, b)


def test_pooled_run_close_to_default_serial_run_at_n12():
    config = _small_config(n_sites=12, realizations=1)
    serial = run_experiment(config)
    pooled = run_experiment(config, n_workers=2)
    for a, b in zip(_fields(serial), _fields(pooled)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@needs_openblas
def test_blas_pin_restored_when_a_realization_raises(monkeypatch):
    before = blas_threads()
    seen = []

    def failing(*args):
        seen.append(blas_threads())
        raise RuntimeError("realization failed")

    monkeypatch.setattr(experiment, "global_quantifiers", failing)
    with pytest.raises(RuntimeError, match="realization failed"):
        run_experiment(_small_config(n_sites=10, realizations=2), n_workers=2)
    assert seen and set(seen) == {1}
    assert blas_threads() == before


# serial runs whose largest matrix, h on the Slater path or else the largest
# sector, lies below blas.ONE_THREAD_BELOW, and two from it up
_ONE_THREAD_RUNS = {
    "max_coherent10": dict(n_sites=10, initial_state="max_coherent"),
    "neel12-g0": dict(n_sites=12, g=0.0),
}
_LIBRARY_COUNT_RUNS = {
    "neel12-g1": dict(n_sites=12),
    "max_coherent11": dict(n_sites=11, initial_state="max_coherent"),
}


@pytest.mark.parametrize("case", _ONE_THREAD_RUNS)
def test_serial_run_below_the_crossover_sets_one_thread_once(counting, case):
    record = run_experiment(_small_config(realizations=2, **_ONE_THREAD_RUNS[case]))
    assert counting.sets == [1, 2] and record.blas_threads == 1


@pytest.mark.parametrize("case", _ONE_THREAD_RUNS)
def test_serial_pin_restored_when_a_realization_raises(counting, monkeypatch, case):
    seen = []

    def failing(*args):
        seen.append(counting.threads)
        raise RuntimeError("realization failed")

    monkeypatch.setattr(experiment, "global_quantifiers", failing)
    with pytest.raises(RuntimeError, match="realization failed"):
        run_experiment(_small_config(realizations=2, **_ONE_THREAD_RUNS[case]))
    # one realization on the caller, and one on the helper if it started
    assert seen and set(seen) == {1} and counting.sets == [1, 2]


@needs_openblas
@pytest.mark.parametrize("case", _LIBRARY_COUNT_RUNS)
def test_serial_run_from_the_crossover_up_keeps_the_library_count(counting, case):
    record = run_experiment(_small_config(realizations=1, **_LIBRARY_COUNT_RUNS[case]))
    assert counting.sets == [] and record.blas_threads == 2


# A serial run on one BLAS thread runs its realizations on the calling thread
# and one helper when the library had more than one thread before the run
# pinned it; a pool runs them on the calling thread and n_workers - 1 helpers
_SINGLE_TRAJECTORY = experiment._single_trajectory


def _realization_threads(monkeypatch, parties, compute=True):
    """(index, thread) of every realization run, in the order they start. The
    first `parties` realizations each wait until all of them have started, so
    each runs on a thread of its own. Without `compute` each returns zero rows."""
    seen, real = [], _SINGLE_TRAJECTORY
    started = threading.Barrier(parties, timeout=30)

    def recorded(config, index):
        seen.append((index, threading.get_ident()))
        if index < parties:
            started.wait()
        return real(config, index) if compute else (0, np.zeros((config.grid.n_points, 3)))

    monkeypatch.setattr(experiment, "_single_trajectory", recorded)
    return seen


def _threads(seen):
    return {thread for _, thread in seen}


_HELPED_RUNS = {
    "max_coherent10-local2": dict(n_sites=10, initial_state="max_coherent", mode="local", window=2),
    "neel10": dict(n_sites=10),
}


@needs_openblas
@pytest.mark.parametrize("case", _HELPED_RUNS)
def test_the_realization_helper_changes_no_bits(two_blas_threads, monkeypatch, case):
    config = _small_config(realizations=3, **_HELPED_RUNS[case])
    seen = _realization_threads(monkeypatch, parties=2)
    helped = run_experiment(config)
    assert len(_threads(seen)) == 2 and helped.blas_threads == 1
    seen = _realization_threads(monkeypatch, parties=1)
    with one_blas_thread():  # the library count is 1, so no helper
        alone = run_experiment(config)
    assert _threads(seen) == {threading.get_ident()}
    pooled = run_experiment(config, n_workers=2)
    assert blas_threads() == 2
    for a, b, c in zip(_fields(helped), _fields(alone), _fields(pooled)):
        assert np.array_equal(a, b) and np.array_equal(a, c)


# (config, workers, library count, helpers beside the calling thread)
_HELPER_CASES = {
    "max_coherent8": (dict(n_sites=8, initial_state="max_coherent"), 1, 2, 1),
    "nine-library-threads": (dict(n_sites=8, initial_state="max_coherent"), 1, 9, 1),
    "one-sector": (dict(n_sites=10), 1, 2, 1),
    "pooled": (dict(n_sites=8, initial_state="max_coherent"), 3, 1, 2),
    "one-library-thread": (dict(n_sites=8, initial_state="max_coherent"), 1, 1, 0),
    "one-realization": (dict(n_sites=8, initial_state="max_coherent", realizations=1), 1, 2, 0),
    "from-462": (dict(n_sites=11, initial_state="max_coherent"), 1, 2, 0),
}


@pytest.mark.parametrize("case", _HELPER_CASES)
def test_which_runs_take_a_realization_helper(counting, monkeypatch, case):
    overrides, workers, library, helpers = _HELPER_CASES[case]
    counting.threads = library
    config = _small_config(**{"realizations": 3, **overrides})
    assert experiment._helpers(config, workers, library) == helpers
    seen = _realization_threads(monkeypatch, parties=helpers + 1)
    run_experiment(config, n_workers=workers)
    assert len(_threads(seen)) == helpers + 1 and threading.get_ident() in _threads(seen)
    assert sorted(index for index, _ in seen) == list(range(config.realizations))


def test_the_realization_helper_runs_each_realization_once(counting, monkeypatch):
    # 8 realizations on the caller and one helper, switching threads every microsecond
    config = _small_config(n_sites=8, initial_state="max_coherent", realizations=8)
    with one_blas_thread():
        alone = run_experiment(config)
    seen = _realization_threads(monkeypatch, parties=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        helped = run_experiment(config)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(index for index, _ in seen) == list(range(8)) and len(_threads(seen)) == 2
    assert helped.seeds == alone.seeds
    for a, b in zip(_fields(helped), _fields(alone)):
        assert np.array_equal(a, b)


@needs_openblas
def test_a_helpers_failure_reaches_the_caller(two_blas_threads, monkeypatch, tmp_path, capsys):
    real, on_the_caller = experiment.propagate, []
    caller_started, helper_failed = threading.Event(), threading.Event()

    def failing_on_a_helper(*args):
        if threading.current_thread() is not threading.main_thread():
            caller_started.wait(timeout=30)
            helper_failed.set()
            raise np.linalg.LinAlgError("eigendecomposition failed for dim=0 matrix: injected")
        caller_started.set()
        helper_failed.wait(timeout=30)
        on_the_caller.append(args)
        return real(*args)

    monkeypatch.setattr(experiment, "propagate", failing_on_a_helper)
    config = _small_config(n_sites=8, initial_state="max_coherent", realizations=4)
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
        run_experiment(config)
    # the caller finished the realization it had begun, its 9 sectors, and started no other
    assert helper_failed.is_set() and len(on_the_caller) == 9 and blas_threads() == 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(config)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 3
    assert "injected" in capsys.readouterr().err
    assert blas_threads() == 2 and not out.exists()


def test_worker_count_below_one_rejected():
    with pytest.raises(ValueError):
        run_experiment(_small_config(realizations=1), n_workers=0)


def test_averaged_ccr_global():
    record = run_experiment(_small_config())
    np.testing.assert_allclose(record.c_mean + record.p_mean + record.e_mean, 1.0, atol=1e-8)
    assert np.all(record.e_mean == 0.0)


def test_averaged_ccr_local():
    record = run_experiment(_small_config(mode="local", window=2))
    np.testing.assert_allclose(record.c_mean + record.p_mean + record.e_mean, 1.0, atol=1e-8)
    assert np.all(record.e_mean > 0.0) or np.any(record.e_mean >= 0.0)


def test_local_mode_multisector_state():
    record = run_experiment(
        _small_config(initial_state="max_coherent", mode="local", window=2, realizations=2)
    )
    np.testing.assert_allclose(record.c_mean + record.p_mean + record.e_mean, 1.0, atol=1e-8)
    assert record.config.warnings()  # superselection note must surface


def test_sweep_pairs_disorder_across_g():
    base = _small_config(realizations=2)
    records = run_sweep(base, [2.0], [0.0, 1.0])
    assert len(records) == 2
    assert records[0].seeds == records[1].seeds
    for seed in records[0].seeds:
        eps0 = sample_disorder(6, seed)
        eps1 = sample_disorder(6, seed)
        assert np.array_equal(eps0, eps1)
    assert records[0].config.chain.g == 0.0
    assert records[1].config.chain.g == 1.0


def test_sweep_covers_cartesian_product():
    base = _small_config(realizations=1)
    records = run_sweep(base, [2.0, 6.0], [0.0, 1.0])
    cells = [(r.config.chain.W, r.config.chain.g) for r in records]
    assert cells == [(2.0, 0.0), (2.0, 1.0), (6.0, 0.0), (6.0, 1.0)]


def test_sweep_rejects_empty_lists():
    base = _small_config(realizations=1)
    with pytest.raises(ValueError):
        run_sweep(base, [], [1.0])
    with pytest.raises(ValueError):
        run_sweep(base, [2.0], [])


def test_w_state_interaction_independent():
    base = _small_config(initial_state="w_state", W=5.0, realizations=3)
    records = run_sweep(base, [5.0], [0.0, 1.0])
    assert np.max(np.abs(records[0].c_mean - records[1].c_mean)) <= 1e-10
    assert np.max(np.abs(records[0].p_mean - records[1].p_mean)) <= 1e-10


def _logging(fn, log):
    """fn, appending the (args, result) of every call to log."""

    def wrapper(*args):
        result = fn(*args)
        log.append((args, result))
        return result

    return wrapper


@pytest.mark.parametrize(
    "g,particles,one_particle_shapes,propagations",
    [(0.0, [1], [(8, 8)], []), (1.0, [4], [], [70])],
    ids=["free", "interacting"],
)
def test_neel_realization_builds_through_the_experiment_bindings(
    monkeypatch, g, particles, one_particle_shapes, propagations
):
    # the benchmark's set-up marker is the first call of experiment.build_hamiltonian,
    # so both paths must build through that binding: the free path hands the
    # N x N h it builds to slater_series, the dense path each sector's H to propagate
    calls = {"build_hamiltonian": [], "slater_series": [], "propagate": []}
    for name, log in calls.items():
        monkeypatch.setattr(experiment, name, _logging(getattr(experiment, name), log))
    run_experiment(_small_config(n_sites=8, g=g, realizations=1))
    assert [args[2].n_particles for args, _ in calls["build_hamiltonian"]] == particles
    assert [args[0].shape for args, _ in calls["slater_series"]] == one_particle_shapes
    assert [series.shape[1] for _, series in calls["propagate"]] == propagations
    built = [h for _, h in calls["build_hamiltonian"]]
    handed = [args[0] for args, _ in calls["slater_series"] + calls["propagate"]]
    assert len(built) == len(handed) and all(a is b for a, b in zip(built, handed))


def _dense_fields(config):
    """run_experiment's statistics, every realization on the dense sector path."""
    ((sector, amps0),) = neel(config.chain.n_sites).blocks
    rows = []
    for k in range(config.realizations):
        eps = sample_disorder(config.chain.n_sites, realization_seed(config.master_seed, k))
        series = propagate(build_hamiltonian(config.chain, eps, sector), amps0, config.grid.times)
        psi_t = BlockState(config.chain.n_sites, (sector,), series)
        if config.mode == "global":
            trip = global_quantifiers(psi_t)
        else:
            trip = local_quantifiers(psi_t, config.window)
        rows.append(np.broadcast_arrays(trip.C, trip.P, trip.E))
    stack = np.asarray(rows)  # (r, 3, T)
    mean, sem = stack.mean(axis=0), stack.std(axis=0, ddof=1) / np.sqrt(config.realizations)
    return mean[0], sem[0], mean[1], sem[1], mean[2], sem[2]


@pytest.mark.parametrize(
    "W,mode,window", [(2.0, "global", None), (6.0, "global", None), (10.0, "global", None),
                      (2.0, "local", 2)],
)
def test_free_cells_of_the_classification_criteria_match_the_dense_path(W, mode, window):
    # the g = 0 cells of acceptance criteria 7 and 8 at N = 12, two realizations
    config = make_default_config(n_sites=12, W=W, g=0.0, mode=mode, window=window,
                                 realizations=2, master_seed=20240301)
    record = run_experiment(config)
    for got, want in zip(_fields(record), _dense_fields(config)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_config_validation_before_compute():
    with pytest.raises(ValueError):
        _small_config(n_sites=5)  # odd chain with alternating initial state
    with pytest.raises(ValueError):
        _small_config(mode="local")  # missing window
    with pytest.raises(ValueError):
        _small_config(mode="local", window=9)
    with pytest.raises(ValueError):
        _small_config(window=2)  # window without local mode
    with pytest.raises(ValueError):
        _small_config(realizations=0)
    with pytest.raises(ValueError):
        _small_config(initial_state="ghz")
    with pytest.raises(ValueError):
        _small_config(master_seed=-1)


def test_memory_guard_reads_sizes_only(host_with_8_gib):
    # constructing a config allocates and enumerates nothing; N=40 Néel would
    # need 8 * comb(40, 20)**2 bytes for its sector Hamiltonian
    with pytest.raises(ValueError, match="physical memory"):
        _small_config(n_sites=40)
    # local mode holds the sector blocks, never 2**N amplitudes: a W state
    # needs 16 * (13 * (2 * N + 3 * 4**2) + (N + 5) * N) bytes
    _small_config(n_sites=40, initial_state="w_state", mode="local", window=2)
    _small_config(n_sites=25, initial_state="w_state", mode="local", window=2)
    with pytest.raises(ValueError, match="at most 63 sites"):
        _small_config(n_sites=10**12, initial_state="w_state")  # settled without comb(N, k)
    # max_coherent's amplitudes and the gather buffer: 16 * 13 * 2 * 2**N
    # bytes, 14 GB at N=25, beside 2.7 * 8 * comb(N, N // 2)**2 for its
    # largest sector
    with pytest.raises(ValueError, match="physical memory"):
        _small_config(n_sites=40, initial_state="max_coherent", mode="local", window=2)
    with pytest.raises(ValueError, match="physical memory"):
        _small_config(n_sites=25, initial_state="max_coherent", mode="local", window=2)
    _small_config(n_sites=14)
    _small_config(n_sites=14, mode="local", window=2, grid=TimeGrid())
    _small_config(n_sites=30, initial_state="w_state")  # one-particle sector, D = 30
    # 61 times: 3 * 16 * 61 * 4**w bytes for an N=12 window and its real Gram
    # (12.3 GB at w=11), 2.7 * 8 * comb(18, 9)**2 (51.1 GB) for a dense N=18
    # Hamiltonian, and 4 * 16 * 61 * comb(18, 9) (190 MB) of N=18 Slater
    # amplitudes
    with pytest.raises(ValueError, match="physical memory"):
        make_default_config(mode="local", window=11)
    make_default_config(mode="local", window=10)  # 3.1 GB
    make_default_config(n_sites=18, g=0.0)
    make_default_config(n_sites=18, g=0.0, initial_state="max_incoherent", mode="local", window=2)
    with pytest.raises(ValueError, match="physical memory"):
        make_default_config(n_sites=18, g=1.0)
    # the tridiagonal path's peak, 2.7 * 8 * D**2: 12.8 GB for max_coherent's
    # largest N=17 sector (D = 24310), 3.6 GB for N=16 Néel (D = 12870)
    with pytest.raises(ValueError, match="physical memory"):
        make_default_config(n_sites=17, initial_state="max_coherent")
    make_default_config(n_sites=16)
    # four arrays of 16 * n_times * comb(18, 9) bytes on the Slater path:
    # 12.4 GB at 4000 times, 6.2 GB at 2000
    with pytest.raises(ValueError, match="physical memory"):
        make_default_config(n_sites=18, g=0.0, grid=TimeGrid(n_points=4000))
    make_default_config(n_sites=18, g=0.0, grid=TimeGrid(n_points=2000))
    with pytest.raises(ValueError, match="physical memory"):
        make_default_config(n_sites=18, g=0.0, initial_state="max_coherent")
    # the time axis: two arrays of 16 * n_times * D bytes of amplitudes on
    # the dense path, D summed over the occupied sectors (2**12 for
    # max_coherent at N=12)
    with pytest.raises(ValueError, match="n_times=1000000 .* physical memory"):
        make_default_config(grid=TimeGrid(n_points=10**6))  # 29.6 GB at D=924
    with pytest.raises(ValueError, match="physical memory"):
        make_default_config(grid=TimeGrid(n_points=5 * 10**5))  # 14.8 GB
    make_default_config(grid=TimeGrid(n_points=250_000))  # 7.4 GB
    with pytest.raises(ValueError, match="physical memory"):
        _small_config(n_sites=4, grid=TimeGrid(n_points=10**12))  # settled before any array
    with pytest.raises(ValueError, match="physical memory"):
        make_default_config(initial_state="max_coherent", grid=TimeGrid(n_points=100_000))  # 13.1 GB
    make_default_config(initial_state="max_coherent", grid=TimeGrid(n_points=50_000))  # 6.6 GB
    # in local mode its 2**12 amplitudes sit beside the gather buffer
    make_default_config(initial_state="max_coherent", mode="local", window=2,
                        grid=TimeGrid(n_points=50_000))  # 6.6 GB
    with pytest.raises(ValueError, match="physical memory"):
        make_default_config(initial_state="max_coherent", mode="local", window=2,
                            grid=TimeGrid(n_points=70_000))  # 9.2 GB


def test_memory_guard_counts_concurrent_realizations(host_with_8_gib, monkeypatch):
    def no_realization(config, index):
        raise AssertionError("a realization started")

    monkeypatch.setattr(experiment, "_single_trajectory", no_realization)
    # each worker runs its own realization: N=16 Néel needs 3.6 GB apiece
    config = make_default_config(n_sites=16)
    config.check_memory(1)
    config.check_memory(2)  # 7.2 GB
    with pytest.raises(experiment.MemoryLimitError, match="3 realization\\(s\\) at once .* physical memory"):
        config.check_memory(3)
    with pytest.raises(experiment.MemoryLimitError):
        run_experiment(config, n_workers=3)  # before any realization starts
    # never more at once than there are realizations
    replace(config, realizations=2).check_memory(4)
    # a sweep checks every cell first: its g=0 cell is a Slater run, the g=1 one is not
    with pytest.raises(experiment.MemoryLimitError):
        run_sweep(replace(config, chain=replace(config.chain, g=0.0)), [2.0], [0.0, 1.0],
                  n_workers=3)


def test_memory_guard_counts_the_realization_helper(host_with_8_gib, counting, monkeypatch):
    seen = _realization_threads(monkeypatch, parties=1, compute=False)

    def max_coherent10(n_points):
        return make_default_config(n_sites=10, initial_state="max_coherent", realizations=2,
                                   grid=TimeGrid(n_points=n_points))

    # max_coherent N=10 global: two arrays of 16 * n_times * 2**10 bytes a
    # realization, 7.5 GB at 230 000 times; two such would not fit, so the
    # run goes on alone, whatever the library count
    for library in (2, 11):
        counting.threads = library
        config = max_coherent10(230_000)
        assert experiment._helpers(config, 1, library) == 0
        seen.clear()
        run_experiment(config)
        assert len(_threads(seen)) == 1 and len(seen) == 2
    # 3.9 GB at 120 000 times, so two fit: the caller and one helper
    counting.threads = 2
    config = max_coherent10(120_000)
    assert experiment._helpers(config, 1, 2) == 1
    seen = _realization_threads(monkeypatch, parties=2, compute=False)
    run_experiment(config)
    assert len(_threads(seen)) == 2
    # 9.8 GB at 300 000 times: not even one fits
    seen.clear()
    with pytest.raises(experiment.MemoryLimitError, match="1 realization\\(s\\) at once"):
        max_coherent10(300_000)
    assert seen == []


@pytest.mark.parametrize("n_sites", range(4, 9))
def test_slater_path_is_exactly_the_single_pattern_states(n_sites):
    for name, factory in experiment._STATE_FACTORIES.items():
        try:
            psi0 = factory(n_sites)
        except ValueError:  # an alternating state on an odd chain
            continue
        (_, amps), *others = psi0.blocks
        single_pattern = not others and np.count_nonzero(amps) == 1
        free = _small_config(n_sites=n_sites, initial_state=name, g=0.0)
        assert experiment._slater(free) == single_pattern
        assert not experiment._slater(replace(free, chain=replace(free.chain, g=1.0)))


def test_short_time_limit_matches_initial_state():
    grid = TimeGrid(1e-3, 1.0, 7)
    record = run_experiment(_small_config(grid=grid, realizations=2))
    # first grid point sits close to t = 0, where the state is still classical
    assert abs(record.c_mean[0] - 0.0) < 1e-2
    assert abs(record.p_mean[0] - 1.0) < 1e-2


def test_realization_seed_depends_on_both_inputs():
    seeds = {realization_seed(1, k) for k in range(50)}
    assert len(seeds) == 50
    assert realization_seed(1, 0) != realization_seed(2, 0)
    assert realization_seed(5, 3) == realization_seed(5, 3)


def test_record_echoes_config():
    config = _small_config()
    record = run_experiment(config)
    assert record.config is config
    assert len(record.times) == 13
    assert len(record.seeds) == 3
