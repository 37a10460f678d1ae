import numpy as np
import pytest

from primegrid.primes import consecutive_primes, is_prime, next_prime
from primegrid.rng import (
    SeedOutOfRange,
    SplitMix64,
    derive_seed,
    index_u64,
    index_u64_array,
)


def test_splitmix64_reference_vectors():
    # published outputs of splitmix64 for state 0
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_uniform_and_randint_ranges():
    r = SplitMix64(42)
    for _ in range(200):
        u = r.uniform()
        assert 0.0 <= u < 1.0
    for _ in range(200):
        assert 3 <= r.randint(3, 9) <= 9
    counts = [0] * 5
    r = SplitMix64(7)
    for _ in range(5000):
        counts[r.randint(0, 4)] += 1
    assert min(counts) > 800   # crude uniformity

def test_derive_seed_stable_and_distinct():
    a = derive_seed(1, "battery", (5, 7), 3)
    assert a == derive_seed(1, "battery", (5, 7), 3)
    assert a != derive_seed(1, "battery", (5, 7), 4)
    assert a != derive_seed(2, "battery", (5, 7), 3)


def test_derive_seed_takes_bases_in_u64_only():
    assert derive_seed(0, "x") != derive_seed((1 << 64) - 1, "x")
    for base in (-1, 1 << 64, -(1 << 64)):
        with pytest.raises(SeedOutOfRange, match=r"\[0, 2\^64\)"):
            derive_seed(base, "x")


def test_index_u64_is_stateless_random_access():
    seq = [index_u64(99, n) for n in range(10)]
    assert seq[3] == index_u64(99, 3)
    assert len(set(seq)) == 10


@pytest.mark.parametrize("seed", [0, 99, derive_seed(20250809, "orbit"),
                                  2**64 - 2, 2**64 - 1])
def test_index_u64_array_bit_exact(seed, demo_store):
    # the uint64 form wraps where the scalar form masks: same bits, including
    # seeds whose first additions overflow and indices near 2^62
    near_top = 2**62 + np.array([-3, -1, 0, 1, 12345], dtype=np.int64)
    for pos in (np.array([0]), demo_store.elements, near_top):
        got = index_u64_array(seed, pos)
        assert got.dtype == np.uint64
        assert got.tolist() == [index_u64(seed, n) for n in pos.tolist()]
    assert index_u64_array(seed, []).size == 0


def _sieve(n):
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(n ** 0.5) + 1):
        if flags[i]:
            for k in range(i * i, n + 1, i):
                flags[k] = False
    return [i for i, f in enumerate(flags) if f]


def test_is_prime_matches_sieve_to_10000():
    primes = set(_sieve(10000))
    for n in range(10001):
        assert is_prime(n) == (n in primes)


def test_is_prime_large_known_values():
    assert is_prime(2**61 - 1)            # Mersenne prime
    assert not is_prime(2**62 - 1)
    assert is_prime(1_000_000_007)
    assert not is_prime(3825123056546413051)   # strong pseudoprime to small bases


def test_next_and_consecutive():
    assert next_prime(96) == 97
    assert next_prime(97) == 101
    assert consecutive_primes(60, 3) == [61, 67, 71]
