import numpy as np
import pytest
import scipy.linalg

from chainquench.evolve import (
    SpectralDecomposition,
    TimeGrid,
    decompose,
    evolve_series,
    slater_series,
)
from chainquench.hamiltonian import ChainParams, build_hamiltonian, sample_disorder
from chainquench.hilbert import enumerate_sector, full_space
from chainquench.states import BlockState, max_coherent, neel

from _oracles import dense_amplitudes, dense_hamiltonian, random_pure_state


def test_decompose_pauli_x():
    spec = decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_decompose_diagonal():
    diag = np.diag([3.0, -1.0, 2.0, 0.0, 5.0, -4.0])
    spec = decompose(diag)
    np.testing.assert_allclose(spec.eigenvalues, np.sort(np.diagonal(diag)), atol=1e-14)
    # eigenvectors of a diagonal matrix are one-hot up to order and sign
    assert np.all(np.isclose(np.abs(spec.eigenvectors), 0.0) | np.isclose(np.abs(spec.eigenvectors), 1.0))


def test_decompose_reconstructs():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6))
    m = m + m.T
    spec = decompose(m)
    V = spec.eigenvectors
    np.testing.assert_allclose(V @ np.diag(spec.eigenvalues) @ V.conj().T, m, atol=1e-10)
    np.testing.assert_allclose(V.conj().T @ V, np.eye(6), atol=1e-10)


def test_evolve_at_zero_is_identity():
    rng = np.random.default_rng(8)
    sector = enumerate_sector(6, 3)
    params = ChainParams(n_sites=6, J=1.0, W=3.0, g=1.0)
    spec = decompose(build_hamiltonian(params, sample_disorder(6, 2), sector))
    amps0 = random_pure_state(rng, sector.dim)
    np.testing.assert_allclose(evolve_series(spec, amps0, [0.0])[0], amps0, atol=1e-12)


def test_two_site_rabi_amplitudes():
    sector = enumerate_sector(2, 1)
    params = ChainParams(n_sites=2, J=1.0, W=0.0, g=0.0)
    spec = decompose(build_hamiltonian(params, sample_disorder(2, 0), sector))
    times = np.linspace(0.0, 12.0, 50)
    series = evolve_series(spec, np.array([1.0 + 0.0j, 0.0]), times)
    for j, t in enumerate(times):
        np.testing.assert_allclose(series[j, 0], np.cos(t), atol=1e-12)
        np.testing.assert_allclose(series[j, 1], -1j * np.sin(t), atol=1e-12)


def test_energy_and_norm_conserved():
    rng = np.random.default_rng(13)
    sector = enumerate_sector(8, 4)
    params = ChainParams(n_sites=8, J=1.0, W=5.0, g=1.0)
    H = build_hamiltonian(params, sample_disorder(8, 77), sector)
    spec = decompose(H)
    amps0 = random_pure_state(rng, sector.dim)
    e0 = np.real(amps0.conj() @ H @ amps0)
    scale = np.linalg.norm(H, 2)
    for amps in evolve_series(spec, amps0, [0.5, 10.0, 100.0]):
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-10
        e_t = np.real(amps.conj() @ H @ amps)
        assert abs(e_t - e0) < 1e-8 * scale


def test_composition():
    rng = np.random.default_rng(19)
    sector = enumerate_sector(6, 2)
    params = ChainParams(n_sites=6, J=1.0, W=2.0, g=0.5)
    spec = decompose(build_hamiltonian(params, sample_disorder(6, 4), sector))
    amps0 = random_pure_state(rng, sector.dim)
    (one_shot,) = evolve_series(spec, amps0, [7.5])
    (two_step,) = evolve_series(spec, evolve_series(spec, amps0, [3.0])[0], [4.5])
    np.testing.assert_allclose(one_shot, two_step, atol=1e-9)


def test_evolve_series_is_time_major():
    # the same product as a dim-major propagation, transposed into C order
    ((sector, amps),) = neel(4).blocks
    params = ChainParams(n_sites=4, J=1.0, W=2.0, g=1.0)
    spec = decompose(build_hamiltonian(params, sample_disorder(4, 3), sector))
    times = TimeGrid(0.1, 100.0, 7).times
    series = evolve_series(spec, amps, times)
    assert series.shape == (7, 6) and series.flags.c_contiguous
    # in real arithmetic: the coefficients' parts from one product with V,
    # then the dim-major phases' real columns beside their imaginary ones,
    # transposed, times V^T
    V = spec.eigenvectors
    re, im = np.stack([amps.real, amps.imag], axis=1).T @ V
    phases = np.exp(np.outer(spec.eigenvalues, times) * (-1j)) * (re + 1j * im)[:, None]
    product = np.concatenate([phases.real, phases.imag], axis=1).T @ V.T
    np.testing.assert_array_equal(series, product[:7] + 1j * product[7:])


def test_evolve_series_from_complex_amplitudes_matches_expm():
    # both parts of the initial amplitudes propagate: dropping the imaginary
    # half, or its sign, fails here
    rng = np.random.default_rng(61)
    sector = enumerate_sector(8, 3)
    params = ChainParams(n_sites=8, J=1.0, W=2.5, g=0.8, boundary="periodic")
    H = build_hamiltonian(params, sample_disorder(8, 12), sector)
    amps0 = random_pure_state(rng, sector.dim)
    times = np.array([0.3, 2.0, 17.0])
    expected = np.stack([scipy.linalg.expm(-1j * H * t) @ amps0 for t in times])
    series = evolve_series(decompose(H), amps0, times)
    np.testing.assert_allclose(series, expected, rtol=0, atol=1e-12)


def test_evolve_series_rejects_complex_eigenvectors():
    spec = decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    complex_spec = SpectralDecomposition(spec.eigenvalues, spec.eigenvectors.astype(complex))
    with pytest.raises(ValueError, match="real"):
        evolve_series(complex_spec, np.array([1.0, 0.0]), [1.0])


def test_multisector_against_dense_propagator():
    n = 6
    psi0 = max_coherent(n)
    params = ChainParams(n_sites=n, J=1.0, W=4.0, g=1.0)
    eps = sample_disorder(n, 55)
    blocks = tuple(
        (sector, evolve_series(decompose(build_hamiltonian(params, eps, sector)), amps, [1.0])[0])
        for sector, amps in psi0.blocks
    )
    evolved = BlockState(n_sites=n, blocks=blocks)

    full = dense_hamiltonian(n, params.J, params.W, params.g, eps)
    expected = scipy.linalg.expm(-1j * full * 1.0) @ dense_amplitudes(psi0)
    np.testing.assert_allclose(dense_amplitudes(evolved), expected, atol=1e-11)
    assert abs(evolved.norm2() - 1.0) < 1e-10


def test_multisector_block_weights_constant():
    n = 6
    params = ChainParams(n_sites=n, J=1.0, W=3.0, g=1.0)
    eps = sample_disorder(n, 8)
    for sector, amps in max_coherent(n).blocks:
        spec = decompose(build_hamiltonian(params, eps, sector))
        weights = np.sum(np.abs(evolve_series(spec, amps, [0.1, 1.0, 100.0])) ** 2, axis=1)
        np.testing.assert_allclose(weights, np.sum(np.abs(amps) ** 2), atol=1e-10)


def _one_particle_spec(params, eps):
    return decompose(build_hamiltonian(params, eps, enumerate_sector(params.n_sites, 1)))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("n", range(4, 11))
def test_slater_series_matches_dense_on_every_basis_state(n, boundary):
    # every particle count 0..N, so k = 0, 1, N - 1 and N included. Grid ends
    # at t = 100: both methods carry eigenvalue rounding, whose phase error
    # grows as ~5e-15 t and reaches 1e-12 near t = 200
    params = ChainParams(n_sites=n, J=1.0, W=3.0, g=0.0, boundary=boundary)
    eps = sample_disorder(n, 100 + n)
    spec1 = _one_particle_spec(params, eps)
    times = TimeGrid(0.1, 100.0, 7).times
    for sector in full_space(n):
        spec = decompose(build_hamiltonian(params, eps, sector))
        for m, x0 in enumerate(sector.states):
            amps = np.zeros(sector.dim, dtype=complex)
            amps[m] = 1.0
            dense = evolve_series(spec, amps, times)
            got = slater_series(spec1, sector, x0, times)
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)


def test_slater_series_matches_brute_force_periodic_chain():
    # the wrap-around hop crosses every other particle, so its string sign
    # depends on the particle count; the 2^N oracle applies it operator by operator
    n = 6
    params = ChainParams(n_sites=n, J=1.0, W=2.0, g=0.0, boundary="periodic")
    eps = sample_disorder(n, 21)
    spec1 = _one_particle_spec(params, eps)
    full = dense_hamiltonian(n, params.J, params.W, params.g, eps, boundary="periodic")
    times = np.array([0.7, 3.0, 25.0])
    propagators = np.stack([scipy.linalg.expm(-1j * full * t) for t in times])
    for sector in full_space(n):
        for x0 in sector.states:
            expected = propagators[:, sector.states, x0]
            np.testing.assert_allclose(
                slater_series(spec1, sector, x0, times), expected, rtol=0, atol=1e-12
            )


def test_slater_series_rejects_mismatched_inputs():
    params = ChainParams(n_sites=4, W=1.0)
    spec1 = _one_particle_spec(params, sample_disorder(4, 0))
    times = np.array([1.0])
    with pytest.raises(ValueError):
        slater_series(spec1, enumerate_sector(4, 2), 0b0111, times)
    with pytest.raises(ValueError):
        slater_series(spec1, enumerate_sector(5, 2), 0b0011, times)


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
