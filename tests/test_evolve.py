import numpy as np
import pytest
import scipy.linalg

from chainquench.evolve import TimeGrid, propagate, slater_series
from chainquench.hamiltonian import ChainParams, build_hamiltonian, sample_disorder
from chainquench.hilbert import enumerate_sector, full_space
from chainquench.states import BlockState, max_coherent, neel

from _oracles import dense_amplitudes, dense_hamiltonian, random_pure_state


def test_propagate_gives_pauli_x_eigenvectors_their_phases():
    # Pauli X's eigenvectors (1, +-1)/sqrt(2) only gain the phases of its eigenvalues +-1
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    times = np.array([0.5, 2.0, 9.0])
    for eigenvalue in (1.0, -1.0):
        v = np.array([1.0, eigenvalue]) / np.sqrt(2.0)
        expected = np.exp(-1j * eigenvalue * times)[:, None] * v
        np.testing.assert_allclose(propagate(x, v, times), expected, rtol=0, atol=1e-14)


def test_evolve_at_zero_is_identity():
    rng = np.random.default_rng(8)
    sector = enumerate_sector(6, 3)
    params = ChainParams(n_sites=6, J=1.0, W=3.0, g=1.0)
    H = build_hamiltonian(params, sample_disorder(6, 2), sector)
    amps0 = random_pure_state(rng, sector.dim)
    np.testing.assert_allclose(propagate(H, amps0, [0.0])[0], amps0, atol=1e-12)


def test_two_site_rabi_amplitudes():
    sector = enumerate_sector(2, 1)
    params = ChainParams(n_sites=2, J=1.0, W=0.0, g=0.0)
    H = build_hamiltonian(params, sample_disorder(2, 0), sector)
    times = np.linspace(0.0, 12.0, 50)
    series = propagate(H, np.array([1.0 + 0.0j, 0.0]), times)
    for j, t in enumerate(times):
        np.testing.assert_allclose(series[j, 0], np.cos(t), atol=1e-12)
        np.testing.assert_allclose(series[j, 1], -1j * np.sin(t), atol=1e-12)


def test_energy_and_norm_conserved():
    rng = np.random.default_rng(13)
    sector = enumerate_sector(8, 4)
    params = ChainParams(n_sites=8, J=1.0, W=5.0, g=1.0)
    H = build_hamiltonian(params, sample_disorder(8, 77), sector)
    amps0 = random_pure_state(rng, sector.dim)
    e0 = np.real(amps0.conj() @ H @ amps0)
    scale = np.linalg.norm(H, 2)
    for amps in propagate(H, amps0, [0.5, 10.0, 100.0]):
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-10
        e_t = np.real(amps.conj() @ H @ amps)
        assert abs(e_t - e0) < 1e-8 * scale


def test_composition():
    rng = np.random.default_rng(19)
    sector = enumerate_sector(6, 2)
    params = ChainParams(n_sites=6, J=1.0, W=2.0, g=0.5)
    H = build_hamiltonian(params, sample_disorder(6, 4), sector)
    amps0 = random_pure_state(rng, sector.dim)
    (one_shot,) = propagate(H, amps0, [7.5])
    (two_step,) = propagate(H, propagate(H, amps0, [3.0])[0], [4.5])
    np.testing.assert_allclose(one_shot, two_step, atol=1e-9)


def test_propagate_is_time_major():
    # one C-ordered row of amplitudes per time, in the order of the times
    ((sector, amps),) = neel(4).blocks
    params = ChainParams(n_sites=4, J=1.0, W=2.0, g=1.0)
    H = build_hamiltonian(params, sample_disorder(4, 3), sector)
    times = TimeGrid(0.1, 100.0, 7).times
    series = propagate(H, amps, times)
    assert series.shape == (7, 6) and series.flags.c_contiguous
    for t, row in zip(times, series):
        np.testing.assert_allclose(row, propagate(H, amps, [t])[0], rtol=0, atol=1e-12)


def test_propagate_from_complex_amplitudes_matches_expm():
    # both parts of the initial amplitudes propagate: dropping the imaginary
    # half, or its sign, fails here
    rng = np.random.default_rng(61)
    sector = enumerate_sector(8, 3)
    params = ChainParams(n_sites=8, J=1.0, W=2.5, g=0.8, boundary="periodic")
    H = build_hamiltonian(params, sample_disorder(8, 12), sector)
    amps0 = random_pure_state(rng, sector.dim)
    times = np.array([0.3, 2.0, 17.0])
    expected = np.stack([scipy.linalg.expm(-1j * H * t) @ amps0 for t in times])
    series = propagate(H, amps0, times)
    np.testing.assert_allclose(series, expected, rtol=0, atol=1e-12)


def test_multisector_against_dense_propagator():
    n = 6
    psi0 = max_coherent(n)
    params = ChainParams(n_sites=n, J=1.0, W=4.0, g=1.0)
    eps = sample_disorder(n, 55)
    evolved = BlockState(n, psi0.sectors, np.empty(psi0.amplitudes.shape, complex))
    for (sector, amps), (_, columns) in zip(psi0.blocks, evolved.blocks):
        columns[...] = propagate(build_hamiltonian(params, eps, sector), amps, [1.0])[0]

    full = dense_hamiltonian(n, params.J, params.W, params.g, eps)
    expected = scipy.linalg.expm(-1j * full * 1.0) @ dense_amplitudes(psi0)
    np.testing.assert_allclose(dense_amplitudes(evolved), expected, atol=1e-11)
    assert abs(evolved.norm2() - 1.0) < 1e-10


def test_multisector_block_weights_constant():
    n = 6
    params = ChainParams(n_sites=n, J=1.0, W=3.0, g=1.0)
    eps = sample_disorder(n, 8)
    for sector, amps in max_coherent(n).blocks:
        H = build_hamiltonian(params, eps, sector)
        weights = np.sum(np.abs(propagate(H, amps, [0.1, 1.0, 100.0])) ** 2, axis=1)
        np.testing.assert_allclose(weights, np.sum(np.abs(amps) ** 2), atol=1e-10)


def _one_particle_h(params, eps):
    return build_hamiltonian(params, eps, enumerate_sector(params.n_sites, 1))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("n", range(4, 11))
def test_slater_series_matches_dense_on_every_basis_state(n, boundary):
    # every particle count 0..N, so k = 0, 1, N - 1 and N included. Grid ends
    # at t = 100: both methods carry eigenvalue rounding, whose phase error
    # grows as ~5e-15 t and reaches 1e-12 near t = 200
    params = ChainParams(n_sites=n, J=1.0, W=3.0, g=0.0, boundary=boundary)
    eps = sample_disorder(n, 100 + n)
    h = _one_particle_h(params, eps)
    times = TimeGrid(0.1, 100.0, 7).times
    for sector in full_space(n):
        eigenvalues, V = np.linalg.eigh(build_hamiltonian(params, eps, sector))
        # the sector's propagators V exp(-i lambda t) V^T, one per time
        dense = np.einsum("ij,tj,kj->tik", V, np.exp(-1j * np.outer(times, eigenvalues)), V)
        for m, x0 in enumerate(sector.states):
            got = slater_series(h, sector, x0, times)
            np.testing.assert_allclose(got, dense[:, :, m], rtol=0, atol=1e-12)


def test_slater_series_matches_brute_force_periodic_chain():
    # the wrap-around hop crosses every other particle, so its string sign
    # depends on the particle count; the 2^N oracle applies it operator by operator
    n = 6
    params = ChainParams(n_sites=n, J=1.0, W=2.0, g=0.0, boundary="periodic")
    eps = sample_disorder(n, 21)
    h = _one_particle_h(params, eps)
    full = dense_hamiltonian(n, params.J, params.W, params.g, eps, boundary="periodic")
    times = np.array([0.7, 3.0, 25.0])
    propagators = np.stack([scipy.linalg.expm(-1j * full * t) for t in times])
    for sector in full_space(n):
        for x0 in sector.states:
            expected = propagators[:, sector.states, x0]
            np.testing.assert_allclose(
                slater_series(h, sector, x0, times), expected, rtol=0, atol=1e-12
            )


def test_slater_series_rejects_mismatched_inputs():
    params = ChainParams(n_sites=4, W=1.0)
    h = _one_particle_h(params, sample_disorder(4, 0))
    times = np.array([1.0])
    with pytest.raises(ValueError):
        slater_series(h, enumerate_sector(4, 2), 0b0111, times)
    with pytest.raises(ValueError):
        slater_series(h, enumerate_sector(5, 2), 0b0011, times)
    for bad in (h[:, :3], h[:3, :3], h.ravel()):  # an h not shaped (N, N)
        with pytest.raises(ValueError, match="slater_series needs a square|has shape"):
            slater_series(bad, enumerate_sector(4, 2), 0b0011, times)


def test_default_time_grid_log_spacing():
    grid = TimeGrid(0.1, 1000.0, 5)
    np.testing.assert_allclose(grid.times, [0.1, 1.0, 10.0, 100.0, 1000.0], rtol=1e-14)
    assert grid.times[0] == 0.1
    assert grid.times[-1] == 1000.0
    assert not grid.times.flags.writeable
    # the default is the protocol grid, and grids are equal by their three numbers
    assert TimeGrid() == TimeGrid(0.1, 1000.0, 61) != grid
    assert len(TimeGrid().times) == 61


def test_default_time_grid_rejects_bad_ranges():
    bad = [(1.0, 1.0, 2), (0.0, 10.0, 5), (0.1, 10.0, 1), (0.1, np.inf, 61), (np.nan, 10.0, 5)]
    for t_min, t_max, n_points in bad:
        with pytest.raises(ValueError):
            TimeGrid(t_min, t_max, n_points)
    # a valid range with too many points for its float spacing fails when built
    grid = TimeGrid(1.0, 1.0 + 2**-52, 100)
    with pytest.raises(ValueError, match="strictly increasing"):
        grid.times
