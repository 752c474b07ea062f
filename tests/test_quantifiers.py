import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainquench.evolve import propagate
from chainquench.hamiltonian import ChainParams, build_hamiltonian, sample_disorder
from chainquench.hilbert import enumerate_sector
from chainquench.quantifiers import (
    _gather_plan,
    coherence_l1,
    entanglement_l1,
    global_quantifiers,
    local_quantifiers,
    measurement_cost,
    partial_trace,
    predictability_l1,
)
from chainquench.states import BlockState, max_coherent, neel

from _oracles import (
    blocks_from_dense,
    dense_amplitudes,
    dense_partial_trace,
    quantifiers_from_rho,
    random_density_matrix,
    random_pure_state,
)


def test_coherence_examples():
    assert coherence_l1(np.diag([0.3, 0.5, 0.2])) == 0.0
    u = np.full(4, 0.5)
    assert coherence_l1(np.outer(u, u)) == pytest.approx(3.0, abs=1e-12)
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert coherence_l1(bell) == pytest.approx(1.0, abs=1e-15)


def test_predictability_examples():
    proj = np.zeros((4, 4))
    proj[2, 2] = 1.0
    assert predictability_l1(proj) == pytest.approx(3.0, abs=1e-15)
    assert predictability_l1(np.eye(4) / 4.0) == pytest.approx(0.0, abs=1e-12)
    assert predictability_l1(np.diag([0.5, 0.5, 0.0, 0.0])) == pytest.approx(2.0, abs=1e-12)


def test_entanglement_examples():
    psi = random_pure_state(np.random.default_rng(2), 3)
    assert entanglement_l1(np.outer(psi, psi.conj())) == pytest.approx(0.0, abs=1e-12)
    assert entanglement_l1(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-12)
    assert entanglement_l1(np.eye(5) / 5.0) == pytest.approx(4.0, abs=1e-12)


def test_ccr_identity_random_density_matrices():
    rng = np.random.default_rng(42)
    for _ in range(300):
        d = int(rng.integers(2, 17))
        rho = random_density_matrix(rng, d)
        c = coherence_l1(rho)
        p = predictability_l1(rho)
        e = entanglement_l1(rho)
        assert c + p + e == pytest.approx(d - 1, abs=1e-9)
        assert e >= -1e-10
        assert c + p <= d - 1 + 1e-9


def test_quantifiers_match_loop_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        rho = random_density_matrix(rng, d)
        ref_c, ref_p, ref_e = quantifiers_from_rho(rho)
        assert coherence_l1(rho) == pytest.approx(ref_c, abs=1e-11)
        assert predictability_l1(rho) == pytest.approx(ref_p, abs=1e-11)
        assert entanglement_l1(rho) == pytest.approx(ref_e, abs=1e-11)


def test_predictability_ignores_off_diagonals():
    rng = np.random.default_rng(29)
    rho = random_density_matrix(rng, 6)
    assert predictability_l1(rho) == predictability_l1(np.diag(np.diagonal(rho)))


def test_relabeling_invariance():
    rng = np.random.default_rng(31)
    rho = random_density_matrix(rng, 7)
    perm = rng.permutation(7)
    shuffled = rho[np.ix_(perm, perm)]
    assert coherence_l1(shuffled) == pytest.approx(coherence_l1(rho), abs=1e-12)
    assert predictability_l1(shuffled) == pytest.approx(predictability_l1(rho), abs=1e-12)
    assert entanglement_l1(shuffled) == pytest.approx(entanglement_l1(rho), abs=1e-12)


def test_global_trivial_states():
    trip = global_quantifiers(neel(6))
    assert (trip.C, trip.P, trip.E) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0, abs=1e-12), 0.0)
    trip = global_quantifiers(max_coherent(4))
    assert trip.C == pytest.approx(1.0, abs=1e-12)
    assert trip.P == pytest.approx(0.0, abs=1e-12)


def test_global_two_site_analytic():
    sector = enumerate_sector(2, 1)
    params = ChainParams(n_sites=2, J=1.0, W=0.0, g=0.0)
    H = build_hamiltonian(params, sample_disorder(2, 0), sector)
    times = np.linspace(0.05, 8.0, 40)
    series = propagate(H, np.array([1.0 + 0j, 0.0]), times)
    for j, t in enumerate(times):
        trip = global_quantifiers(BlockState(2, (sector,), series[j]))
        assert trip.C == pytest.approx(abs(np.sin(2 * t)) / 3.0, abs=1e-12)
        assert trip.P == pytest.approx(1.0 - abs(np.sin(2 * t)) / 3.0, abs=1e-12)


def test_global_shortcut_equals_dense_rho():
    rng = np.random.default_rng(23)
    for n in (2, 4, 6):
        vec = random_pure_state(rng, 1 << n)
        state = blocks_from_dense(vec, n)
        trip = global_quantifiers(state)
        ref_c, ref_p, _ = quantifiers_from_rho(np.outer(vec, vec.conj()))
        scale = (1 << n) - 1
        assert trip.C == pytest.approx(ref_c / scale, abs=1e-9)
        assert trip.P == pytest.approx(ref_p / scale, abs=1e-9)
        assert trip.C + trip.P == pytest.approx(1.0, abs=1e-9)


def test_global_rejects_unnormalized():
    sector = enumerate_sector(3, 1)
    bad = BlockState(3, (sector,), np.array([1.0, 1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        global_quantifiers(bad)


def test_partial_trace_product_state():
    rho = partial_trace(neel(4), [1, 2])
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # window (1, 0): site 1 occupied, site 2 empty
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_partial_trace_bell_pair():
    sector = enumerate_sector(2, 1)
    amps = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = partial_trace(BlockState(2, (sector,), amps), [1])
    np.testing.assert_allclose(rho, np.eye(2) / 2.0, atol=1e-15)


@pytest.mark.slow
def test_partial_trace_matches_dense_oracle():
    # time-major states, one sector and many, every window at every time
    rng = np.random.default_rng(37)
    for n, n_particles in ((6, 3), (6, None), (8, 4), (8, None)):
        psi = _random_state_over_time(rng, n, 3, n_particles)
        dense = dense_amplitudes(psi)
        for width in range(1, n + 1):
            for first in range(1, n + 2 - width):
                window = list(range(first, first + width))
                rho = partial_trace(psi, window)
                assert rho.shape == (3, 1 << width, 1 << width)
                assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
                for j in range(3):
                    ref = dense_partial_trace(dense[j], n, window)
                    np.testing.assert_allclose(rho[j], ref, rtol=0, atol=1e-13)
                np.testing.assert_allclose(np.trace(rho, axis1=1, axis2=2), 1.0, atol=1e-12)


def test_partial_trace_rejects_bad_windows():
    psi = neel(6)
    with pytest.raises(NotImplementedError):
        partial_trace(psi, [1, 3])
    with pytest.raises(NotImplementedError):
        partial_trace(psi, [4, 3])
    with pytest.raises(ValueError):
        partial_trace(psi, [6, 7])
    with pytest.raises(ValueError):
        partial_trace(psi, [])


def test_local_full_window_equals_global():
    rng = np.random.default_rng(41)
    state = blocks_from_dense(random_pure_state(rng, 32), 5)
    loc = local_quantifiers(state, 5)
    glo = global_quantifiers(state)
    assert loc.C == pytest.approx(glo.C, abs=1e-12)
    assert loc.P == pytest.approx(glo.P, abs=1e-12)
    assert loc.E == pytest.approx(glo.E, abs=1e-12)


def test_local_neel_windows_are_classical():
    trip = local_quantifiers(neel(6), 2)
    assert trip.C == pytest.approx(0.0, abs=1e-12)
    assert trip.E == pytest.approx(0.0, abs=1e-12)
    assert trip.P == pytest.approx(1.0, abs=1e-12)


def test_local_matches_dense_window_average():
    rng = np.random.default_rng(43)
    vec = random_pure_state(rng, 16)
    state = blocks_from_dense(vec, 4)
    trip = local_quantifiers(state, 2)
    c = p = e = 0.0
    for first in (1, 2, 3):
        rho = dense_partial_trace(vec, 4, [first, first + 1])
        rc, rp, re = quantifiers_from_rho(rho)
        c, p, e = c + rc, p + rp, e + re
    scale = 3.0 * 3  # three windows, d - 1 = 3 each
    assert trip.C == pytest.approx(c / scale, abs=1e-10)
    assert trip.P == pytest.approx(p / scale, abs=1e-10)
    assert trip.E == pytest.approx(e / scale, abs=1e-10)
    assert trip.C + trip.P + trip.E == pytest.approx(1.0, abs=1e-9)


def test_local_equals_window_average_of_partial_traces():
    rng = np.random.default_rng(47)
    psi = _random_state_over_time(rng, 7, 4, None)
    for n in range(1, 8):
        c = p = e = 0.0
        for first in range(1, 9 - n):
            rho = partial_trace(psi, range(first, first + n))
            c += coherence_l1(rho)
            p += predictability_l1(rho)
            e += entanglement_l1(rho)
        scale = ((1 << n) - 1) * (8 - n)
        trip = local_quantifiers(psi, n)
        for got, total in ((trip.C, c), (trip.P, p), (trip.E, e)):
            assert np.array_equal(got, total / scale)


def test_local_rejects_bad_window_size():
    with pytest.raises(ValueError):
        local_quantifiers(neel(4), 5)
    with pytest.raises(ValueError):
        local_quantifiers(neel(4), 0)


def test_measurement_cost_values():
    assert measurement_cost(12, "P") == 12
    assert measurement_cost(12, "C") == 4**12
    assert measurement_cost(12, "E") == 4**12
    assert measurement_cost(1, "predictability") == 1
    assert measurement_cost(3, "Coherence") == 64


def test_measurement_cost_rejects_bad_input():
    with pytest.raises(ValueError):
        measurement_cost(0, "P")
    with pytest.raises(ValueError):
        measurement_cost(4, "visibility")


def _random_state_over_time(rng, n, n_times, n_particles):
    """Rows normalized one by one; n_particles=None spreads over every sector."""
    dim = 1 << n if n_particles is None else enumerate_sector(n, n_particles).dim
    rows = rng.standard_normal((n_times, dim)) + 1j * rng.standard_normal((n_times, dim))
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    if n_particles is None:
        return blocks_from_dense(rows, n)
    return BlockState(n, (enumerate_sector(n, n_particles),), rows)


@st.composite
def _states_over_time(draw):
    n = draw(st.integers(1, 8))
    n_particles = draw(st.one_of(st.none(), st.integers(0, n)))
    n_times = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_state_over_time(rng, n, n_times, n_particles)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_states_over_time())
def test_time_axis_changes_no_bits(psi):
    """A time-major state gives exactly the stacked results of its time slices."""
    (n_times,) = psi.time_shape
    slices = [BlockState(psi.n_sites, psi.sectors, psi.amplitudes[j]) for j in range(n_times)]

    def assert_stacked(batched, per_time):
        for field in ("C", "P", "E"):
            want = np.array([getattr(trip, field) for trip in per_time])
            got = np.broadcast_to(getattr(batched, field), want.shape)
            assert np.array_equal(got, want), field

    assert_stacked(global_quantifiers(psi), [global_quantifiers(p) for p in slices])
    for n in range(1, psi.n_sites + 1):
        assert_stacked(local_quantifiers(psi, n), [local_quantifiers(p, n) for p in slices])
        window = range(psi.n_sites - n + 1, psi.n_sites + 1)
        rho = partial_trace(psi, window)
        assert np.array_equal(rho, np.stack([partial_trace(p, window) for p in slices]))
        for quantifier in (coherence_l1, predictability_l1, entanglement_l1):
            assert np.array_equal(quantifier(rho), np.stack([quantifier(r) for r in rho]))


def _sector_subset_state(n, counts, n_times, seed):
    """A random state on sectors `counts`, in that block order, at one time
    (n_times=None) or over n_times times."""
    rng = np.random.default_rng(seed)
    lead = () if n_times is None else (n_times,)
    sectors = tuple(enumerate_sector(n, k) for k in counts)
    shape = lead + (sum(sector.dim for sector in sectors),)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return BlockState(n, sectors, amps / np.linalg.norm(amps, axis=-1, keepdims=True))


@st.composite
def _sector_subset_states(draw):
    n = draw(st.integers(1, 6))
    counts = draw(st.permutations(sorted(draw(st.sets(st.integers(0, n), min_size=1)))))
    n_times = draw(st.one_of(st.none(), st.integers(1, 3)))
    return _sector_subset_state(n, counts, n_times, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_sector_subset_states())
@example(_sector_subset_state(6, (3, 1), 2, 0))  # a gap between sectors, blocks out of order
@example(_sector_subset_state(5, (1, 3), None, 1))
def test_block_gathered_windows_match_the_dense_oracle(psi):
    n = psi.n_sites
    counts = tuple(sector.n_particles for sector, _ in psi.blocks)
    total = sum(sector.dim for sector, _ in psi.blocks)
    dense = dense_amplitudes(psi).reshape(-1, 1 << n)
    for width in range(1, n + 1):
        sums = np.zeros((3, len(dense)))
        for first in range(1, n + 2 - width):
            index, groups = _gather_plan(n, counts, first, width)
            assert np.array_equal(np.sort(index), np.arange(2 * total))
            # each group's columns follow the last one's, rows by complements
            stops = [0] + [part.stop for _, part in groups]
            assert [part.start for _, part in groups] == stops[:-1] and stops[-1] == 2 * total
            assert all((part.stop - part.start) % (2 * len(patterns)) == 0
                       for patterns, part in groups)
            window = range(first, first + width)
            rho = partial_trace(psi, window)
            assert rho.shape == psi.time_shape + (1 << width, 1 << width)
            for j, (vec, got) in enumerate(zip(dense, rho.reshape((-1,) + rho.shape[-2:]))):
                ref = dense_partial_trace(vec, n, list(window))
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)
                sums[:, j] += quantifiers_from_rho(ref)
        trip = local_quantifiers(psi, width)
        scale = ((1 << width) - 1) * (n - width + 1)
        for got, want in zip((trip.C, trip.P, trip.E), sums / scale):
            np.testing.assert_allclose(np.reshape(got, -1), want, rtol=0, atol=1e-12)
