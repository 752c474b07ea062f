import numpy as np
import pytest

from chainquench.hilbert import enumerate_sector, full_space

from _oracles import hop_amplitude, hop_sign


def test_enumerate_4_choose_2():
    sector = enumerate_sector(4, 2)
    assert sector.states.tolist() == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert sector.dim == 6


def test_enumerate_sizes():
    assert enumerate_sector(12, 6).dim == 924
    assert enumerate_sector(3, 0).states.tolist() == [0]


def test_enumerate_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_sector(4, 5)
    with pytest.raises(ValueError):
        enumerate_sector(4, -1)


def test_index_map_is_exact_inverse():
    for n, k in [(1, 0), (5, 2), (8, 4), (10, 3)]:
        sector = enumerate_sector(n, k)
        # strictly ascending, so np.searchsorted(sector.states, bits) is the index of bits
        assert np.all(np.diff(sector.states) > 0)


def test_full_space_covers_everything():
    sectors = full_space(6)
    assert [sec.n_particles for sec in sectors] == list(range(7))
    assert sum(sec.dim for sec in sectors) == 64
    seen = sorted(int(s) for sec in sectors for s in sec.states)
    assert seen == list(range(64))


def test_hop_sign_rejects_bad_occupancy():
    # state 101: sites 1 and 3 occupied
    with pytest.raises(ValueError):
        hop_sign(0b101, 1, 3)  # target occupied
    with pytest.raises(ValueError):
        hop_sign(0b101, 2, 1)  # source empty
    with pytest.raises(ValueError):
        hop_sign(0b101, 1, 1)


def test_hop_sign_adjacent_is_plus_one():
    assert hop_sign(0b101, 3, 2) == 1
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        state = int(rng.integers(0, 1 << n))
        i = int(rng.integers(1, n))
        if (state >> (i - 1)) & 1 and not (state >> i) & 1:
            assert hop_sign(state, i, i + 1) == 1


def test_hop_sign_crossing_one_particle():
    # sites 1 and 2 occupied; moving 1 -> 3 crosses the particle on site 2
    assert hop_sign(0b011, 1, 3) == -1


def test_hop_sign_matches_operator_application():
    # enumerate every valid hop on small chains against the anticommutation oracle
    for n in (3, 4, 5):
        for state in range(1 << n):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    occupied_i = (state >> (i - 1)) & 1
                    occupied_j = (state >> (j - 1)) & 1
                    if not occupied_i or occupied_j:
                        continue
                    final, sign = hop_amplitude(state, i, j, n)
                    assert final == state ^ (1 << (i - 1)) ^ (1 << (j - 1))
                    assert hop_sign(state, i, j) == sign


def test_hop_sign_hermitian_pair():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        state = int(rng.integers(0, 1 << n))
        i, j = rng.permutation(np.arange(1, n + 1))[:2]
        i, j = int(i), int(j)
        if not (state >> (i - 1)) & 1 or (state >> (j - 1)) & 1:
            continue
        moved = state ^ (1 << (i - 1)) ^ (1 << (j - 1))
        assert hop_sign(state, i, j) == hop_sign(moved, j, i)
