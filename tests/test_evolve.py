import numpy as np
import pytest
import scipy.linalg

from chainquench.evolve import (
    decompose,
    default_time_grid,
    evolve_series,
    evolve_state,
    slater_series,
)
from chainquench.hamiltonian import ChainParams, build_hamiltonian, sample_disorder
from chainquench.hilbert import enumerate_sector, full_space
from chainquench.states import BlockState, max_coherent, neel

from _oracles import dense_hamiltonian, random_pure_state


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


def _random_sector_state(rng, sector):
    return BlockState(n_sites=sector.n_sites, blocks=((sector, random_pure_state(rng, sector.dim)),))


def _amps(state):
    ((_, amps),) = state.blocks
    return amps


def test_evolve_at_zero_is_identity():
    rng = np.random.default_rng(8)
    sector = enumerate_sector(6, 3)
    params = ChainParams(n_sites=6, J=1.0, W=3.0, g=1.0)
    spec = decompose(build_hamiltonian(params, sample_disorder(6, 2), sector))
    psi0 = _random_sector_state(rng, sector)
    psi_t = evolve_state({sector.n_particles: spec}, psi0, 0.0)
    np.testing.assert_allclose(_amps(psi_t), _amps(psi0), atol=1e-12)


def test_two_site_rabi_amplitudes():
    sector = enumerate_sector(2, 1)
    params = ChainParams(n_sites=2, J=1.0, W=0.0, g=0.0)
    spec = decompose(build_hamiltonian(params, sample_disorder(2, 0), sector))
    psi0 = BlockState(n_sites=2, blocks=((sector, np.array([1.0 + 0.0j, 0.0])),))
    for t in np.linspace(0.0, 12.0, 50):
        amps = _amps(evolve_state({sector.n_particles: spec}, psi0, float(t)))
        np.testing.assert_allclose(amps[0], np.cos(t), atol=1e-12)
        np.testing.assert_allclose(amps[1], -1j * np.sin(t), atol=1e-12)


def test_energy_and_norm_conserved():
    rng = np.random.default_rng(13)
    sector = enumerate_sector(8, 4)
    params = ChainParams(n_sites=8, J=1.0, W=5.0, g=1.0)
    H = build_hamiltonian(params, sample_disorder(8, 77), sector)
    spec = decompose(H)
    psi0 = _random_sector_state(rng, sector)
    e0 = np.real(_amps(psi0).conj() @ H @ _amps(psi0))
    scale = np.linalg.norm(H, 2)
    for t in (0.5, 10.0, 100.0):
        psi_t = evolve_state({sector.n_particles: spec}, psi0, t)
        assert abs(psi_t.norm2() - 1.0) < 1e-10
        e_t = np.real(_amps(psi_t).conj() @ H @ _amps(psi_t))
        assert abs(e_t - e0) < 1e-8 * scale


def test_composition():
    rng = np.random.default_rng(19)
    sector = enumerate_sector(6, 2)
    params = ChainParams(n_sites=6, J=1.0, W=2.0, g=0.5)
    specs = {2: decompose(build_hamiltonian(params, sample_disorder(6, 4), sector))}
    psi0 = _random_sector_state(rng, sector)
    one_shot = evolve_state(specs, psi0, 7.5)
    two_step = evolve_state(specs, evolve_state(specs, psi0, 3.0), 4.5)
    np.testing.assert_allclose(_amps(one_shot), _amps(two_step), atol=1e-9)


def _multisector_specs(params, eps, state):
    return {sector.n_particles: decompose(build_hamiltonian(params, eps, sector)) for sector, _ in state.blocks}


def test_multisector_single_block_matches_evolve_state():
    # a time array gives time-major blocks whose rows are the one-time states
    psi = neel(4)
    params = ChainParams(n_sites=4, J=1.0, W=2.0, g=1.0)
    specs = _multisector_specs(params, sample_disorder(4, 3), psi)
    times = default_time_grid(0.1, 100.0, 7).times
    grid_amps = _amps(evolve_state(specs, psi, times))
    assert grid_amps.shape == (7, 6) and grid_amps.flags.c_contiguous
    np.testing.assert_array_equal(grid_amps.T, evolve_series(specs[2], _amps(psi), times))
    for j, t in enumerate(times):
        np.testing.assert_allclose(grid_amps[j], _amps(evolve_state(specs, psi, t)), atol=1e-14)


def test_multisector_against_dense_propagator():
    n = 6
    psi0 = max_coherent(n)
    params = ChainParams(n_sites=n, J=1.0, W=4.0, g=1.0)
    eps = sample_disorder(n, 55)
    specs = _multisector_specs(params, eps, psi0)
    evolved = evolve_state(specs, psi0, 1.0)

    full = dense_hamiltonian(n, params.J, params.W, params.g, eps)
    expected = scipy.linalg.expm(-1j * full * 1.0) @ psi0.to_dense()
    np.testing.assert_allclose(evolved.to_dense(), expected, atol=1e-11)
    assert abs(evolved.norm2() - 1.0) < 1e-10


def test_multisector_block_weights_constant():
    n = 6
    psi0 = max_coherent(n)
    params = ChainParams(n_sites=n, J=1.0, W=3.0, g=1.0)
    specs = _multisector_specs(params, sample_disorder(n, 8), psi0)
    w0 = [np.sum(np.abs(a) ** 2) for _, a in psi0.blocks]
    for t in (0.1, 1.0, 100.0):
        evolved = evolve_state(specs, psi0, t)
        w_t = [np.sum(np.abs(a) ** 2) for _, a in evolved.blocks]
        np.testing.assert_allclose(w_t, w0, atol=1e-10)


def test_multisector_missing_block_rejected():
    psi0 = max_coherent(3)
    params = ChainParams(n_sites=3, J=1.0, W=1.0, g=0.0)
    specs = _multisector_specs(params, sample_disorder(3, 1), psi0)
    del specs[3]
    with pytest.raises(ValueError):
        evolve_state(specs, psi0, 1.0)


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
    times = default_time_grid(0.1, 100.0, 7).times
    for sector in full_space(n):
        spec = decompose(build_hamiltonian(params, eps, sector))
        for m, x0 in enumerate(sector.states):
            amps = np.zeros(sector.dim, dtype=complex)
            amps[m] = 1.0
            dense = evolve_series(spec, amps, times).T
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
    grid = default_time_grid(0.1, 1000.0, 5)
    np.testing.assert_allclose(grid.times, [0.1, 1.0, 10.0, 100.0, 1000.0], rtol=1e-14)
    assert grid.times[0] == 0.1
    assert grid.times[-1] == 1000.0


def test_default_time_grid_rejects_bad_ranges():
    with pytest.raises(ValueError):
        default_time_grid(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        default_time_grid(0.0, 10.0, 5)
    with pytest.raises(ValueError):
        default_time_grid(0.1, 10.0, 1)


def test_negative_time_rejected():
    sector = enumerate_sector(2, 1)
    params = ChainParams(n_sites=2)
    spec = decompose(build_hamiltonian(params, sample_disorder(2, 0), sector))
    psi0 = BlockState(n_sites=2, blocks=((sector, np.array([1.0 + 0j, 0.0])),))
    with pytest.raises(ValueError):
        evolve_state({sector.n_particles: spec}, psi0, -1.0)
    with pytest.raises(ValueError):
        evolve_state({sector.n_particles: spec}, psi0, np.array([1.0, -1.0]))
