import numpy as np
import pytest

from chainquench.hilbert import enumerate_sector
from chainquench.quantifiers import global_quantifiers
from chainquench.states import BlockState, max_coherent, max_incoherent, neel, w_state

from _oracles import blocks_from_dense, dense_amplitudes, quantifiers_from_rho, random_pure_state


def test_neel_pattern():
    psi = neel(4)
    ((sector, amps),) = psi.blocks
    assert sector.n_particles == 2
    hot = int(sector.states[np.flatnonzero(amps)[0]])
    assert hot == 0b0101  # sites 1 and 3 occupied
    assert psi.norm2() == 1.0


def test_neel_large_is_one_hot():
    ((sector, amps),) = neel(12).blocks
    assert sector.dim == 924
    assert np.count_nonzero(amps) == 1


def test_neel_odd_rejected():
    with pytest.raises(ValueError):
        neel(5)


def test_max_incoherent_pattern():
    psi = max_incoherent(4)
    ((sector, amps),) = psi.blocks
    hot = int(sector.states[np.flatnonzero(amps)[0]])
    assert hot == 0b0011  # sites 1 and 2 occupied
    trip = global_quantifiers(psi)
    assert trip.C == pytest.approx(0.0, abs=1e-12)
    assert trip.P == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        max_incoherent(7)


def test_max_coherent_uniform():
    state = max_coherent(2)
    np.testing.assert_allclose(dense_amplitudes(state), np.full(4, 0.5), atol=1e-15)
    trip = global_quantifiers(state)
    assert trip.C == pytest.approx(1.0, abs=1e-12)
    assert trip.P == pytest.approx(0.0, abs=1e-12)


def test_max_coherent_block_structure():
    state = max_coherent(5)
    assert len(state.blocks) == 6
    assert state.norm2() == pytest.approx(1.0, abs=1e-12)
    for sector, amps in state.blocks:
        assert np.all(amps == 2.0**-2.5)
        assert len(amps) == sector.dim


def test_w_state_quantifiers_against_dense_rho():
    psi = w_state(3)
    assert psi.norm2() == pytest.approx(1.0, abs=1e-15)
    rho = np.outer(dense_amplitudes(psi), dense_amplitudes(psi).conj())
    raw_c, raw_p, raw_e = quantifiers_from_rho(rho)
    assert raw_c == pytest.approx(2.0, abs=1e-12)  # N - 1
    assert raw_p == pytest.approx(5.0, abs=1e-12)  # d - 1 - (N - 1)
    trip = global_quantifiers(psi)
    assert trip.C == pytest.approx(2.0 / 7.0, abs=1e-12)
    assert trip.P == pytest.approx(5.0 / 7.0, abs=1e-12)
    assert raw_e == pytest.approx(0.0, abs=1e-12)


def test_w_state_single_particle_sector():
    ((sector, amps),) = w_state(6).blocks
    assert sector.n_particles == 1
    np.testing.assert_allclose(np.abs(amps), 1.0 / np.sqrt(6.0), atol=1e-15)


def test_from_dense_roundtrip():
    rng = np.random.default_rng(21)
    vec = random_pure_state(rng, 1 << 5)
    state = blocks_from_dense(vec, 5)
    np.testing.assert_allclose(dense_amplitudes(state), vec, atol=1e-15)
    counts = [sector.n_particles for sector, _ in state.blocks]
    assert counts == sorted(set(counts))


def test_from_dense_rejects_bad_length():
    with pytest.raises(ValueError):
        blocks_from_dense(np.ones(7), 3)


def test_blocks_are_views_of_one_c_ordered_array():
    rng = np.random.default_rng(5)
    sectors = tuple(enumerate_sector(5, k) for k in (3, 1, 2))  # out of count order
    dims = (10, 5, 10)
    # time-major amplitudes that are not C-ordered: Fortran order, and every other column
    for amps in (np.asfortranarray(rng.normal(size=(4, 25)) + 1j),
                 rng.normal(size=(4, 50))[:, ::2]):
        psi = BlockState(5, sectors, amps)
        assert psi.amplitudes is not amps and psi.amplitudes.flags.c_contiguous
        assert np.array_equal(psi.amplitudes, amps)
        assert psi.sectors is sectors and psi.time_shape == (4,)
    # C-ordered amplitudes are held as given, and the blocks are views of their columns
    amps = rng.normal(size=(4, 25)) + 0j
    psi = BlockState(5, sectors, amps)
    assert psi.amplitudes is amps
    stops = np.cumsum(dims)
    for (sector, block), sector_in, stop, dim in zip(psi.blocks, sectors, stops, dims):
        assert sector is sector_in and np.shares_memory(block, amps)
        assert np.array_equal(block, amps[:, stop - dim:stop])


def _sectors(n_sites, *counts):
    return tuple(enumerate_sector(n_sites, k) for k in counts)


@pytest.mark.parametrize(
    "n_sites,sectors,dim,match",
    [
        (4, _sectors(4, 2, 2), 12, "one block per particle count"),
        (4, _sectors(4, 2), 3, "amplitudes shaped"),
        (4, _sectors(5, 2), 10, "5-site sector in a 4-site state"),
        (4, (), 0, "at least one sector"),
    ],
    ids=["repeated-count", "short-amplitudes", "other-chain", "no-sector"],
)
def test_block_state_rejects_inconsistent_blocks(n_sites, sectors, dim, match):
    # before, a repeated N=4, k=2 block gave C=0.733 and 3 amplitudes in the
    # 6-state sector a global triple, without an error
    with pytest.raises(ValueError, match=match):
        BlockState(n_sites, sectors, np.full(dim, 0.5, dtype=complex))
