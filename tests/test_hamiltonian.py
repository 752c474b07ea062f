import random

import numpy as np
import pytest

from chainquench.experiment import realization_seed
from chainquench.hamiltonian import ChainParams, build_hamiltonian, sample_disorder
from chainquench.hilbert import enumerate_sector

from _oracles import dense_hamiltonian


def test_disorder_deterministic():
    a = sample_disorder(12, 42)
    b = sample_disorder(12, 42)
    assert np.array_equal(a, b)
    assert not a.flags.writeable
    assert not np.array_equal(a, sample_disorder(12, 43))


# word boundaries of the 32-bit entropy words, and random 64-bit seeds
_RNG = random.Random(2024)
_STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 2**64, 2**100 + 5] + [
    _RNG.getrandbits(64) for _ in range(200)
]


def test_disorder_is_numpys_default_rng_stream():
    for seed in _STREAM_SEEDS:
        for n in (2, 12, 16, 63):
            expected = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
            assert sample_disorder(n, seed).tobytes() == expected.tobytes(), (seed, n)


def test_realization_seed_is_numpys_seed_sequence():
    for master_seed in _STREAM_SEEDS:
        for index in (0, 1, 7, 2**40):
            words = np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)
            assert realization_seed(master_seed, index) == int(words[0]), (master_seed, index)


def test_disorder_seed_types():
    expected = sample_disorder(12, 42)
    for seed in (np.int64(42), np.uint64(42)):
        assert np.array_equal(sample_disorder(12, seed), expected)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_disorder(12, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        realization_seed(0, -1)
    with pytest.raises(TypeError):
        sample_disorder(12, 1.5)
    with pytest.raises(ValueError):
        sample_disorder(-1, 42)
    eps = sample_disorder(12, 42)
    assert eps.dtype == np.float64 and not eps.flags.writeable


def test_disorder_within_range():
    for seed in range(100):
        eps = sample_disorder(100, seed)
        assert np.all(eps >= -1.0) and np.all(eps <= 1.0)


def test_disorder_first_component_mean():
    # law of large numbers on epsilon_1: std of the mean is ~0.0018 at 1e5 draws
    draws = np.array([sample_disorder(3, seed)[0] for seed in range(100_000)])
    assert abs(draws.mean()) < 0.01


def test_two_site_single_particle():
    params = ChainParams(n_sites=2, J=1.0, W=0.0, g=0.0)
    H = build_hamiltonian(params, sample_disorder(2, 0), enumerate_sector(2, 1))
    assert H.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_two_site_full_filling():
    params = ChainParams(n_sites=2, J=1.0, W=1.0, g=1.0)
    eps = sample_disorder(2, 5)
    H = build_hamiltonian(params, eps, enumerate_sector(2, 2))
    expected = eps[0] + eps[1] + 1.0
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("g", [0.0, 1.0])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_matches_term_by_term_oracle(g, boundary):
    # repeated builds on one sector share its cached hop tables; N=2 periodic
    # has its bond twice, so each hop entry is written twice
    for n, k, J, W, seed in ((4, 2, 1.0, 2.0, 123), (4, 2, 0.7, 2.3, 5), (2, 1, 0.7, 2.3, 5)):
        params = ChainParams(n_sites=n, J=J, W=W, g=g, boundary=boundary)
        eps = sample_disorder(n, seed)
        sector = enumerate_sector(n, k)
        H = build_hamiltonian(params, eps, sector)

        full = dense_hamiltonian(n, params.J, params.W, params.g, eps, boundary)
        block = full[np.ix_(sector.states, sector.states)]
        np.testing.assert_allclose(H, block, atol=1e-13)


def test_oracle_never_couples_sectors():
    n = 4
    eps = sample_disorder(n, 9)
    full = dense_hamiltonian(n, 1.0, 2.0, 1.0, eps)
    pop = np.array([bin(s).count("1") for s in range(1 << n)])
    off_sector = full[pop[:, None] != pop[None, :]]
    assert np.all(off_sector == 0.0)


def test_exactly_symmetric():
    rng = np.random.default_rng(3)
    for boundary in ("open", "periodic"):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, n))
        params = ChainParams(n_sites=n, J=1.3, W=4.0, g=0.7, boundary=boundary)
        H = build_hamiltonian(params, sample_disorder(n, 17), enumerate_sector(n, k))
        assert np.array_equal(H, H.T)
        assert H.dtype == np.float64


def test_periodic_tight_binding_spectrum():
    n = 6
    params = ChainParams(n_sites=n, J=1.0, W=0.0, g=0.0, boundary="periodic")
    H = build_hamiltonian(params, sample_disorder(n, 0), enumerate_sector(n, 1))
    got = np.linalg.eigvalsh(H)
    expected = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_dimension_mismatch_rejected():
    params = ChainParams(n_sites=4)
    with pytest.raises(ValueError):
        build_hamiltonian(params, sample_disorder(3, 0), enumerate_sector(4, 2))
    with pytest.raises(ValueError):
        build_hamiltonian(params, sample_disorder(4, 0), enumerate_sector(5, 2))


def test_params_validation():
    with pytest.raises(ValueError):
        ChainParams(n_sites=1)
    with pytest.raises(ValueError):
        ChainParams(n_sites=4, boundary="twisted")
    with pytest.raises(ValueError):
        ChainParams(n_sites=4, W=float("nan"))
