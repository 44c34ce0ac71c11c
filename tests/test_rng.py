import numpy as np
import pytest

from strokebench.nn.rng import SplitMix64, derive_seed

from oracles import derive_seed_scalar, splitmix64_sequence


def test_matches_scalar_reference():
    for seed in (0, 1, 1234567, 2**64 - 1):
        gen = SplitMix64(seed)
        got = [gen.next_u64() for _ in range(50)]
        assert got == splitmix64_sequence(seed, 50)


def test_documented_seed0_prefix():
    assert splitmix64_sequence(0, 3) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(3)] == splitmix64_sequence(0, 3)


def test_vectorized_block_equals_scalar_draws():
    a, b = SplitMix64(99), SplitMix64(99)
    block = a.fill_u64(257)
    scalars = np.array([b.next_u64() for _ in range(257)], dtype=np.uint64)
    assert np.array_equal(block, scalars)
    # interleaving scalar and block draws stays on the same sequence
    assert a.next_u64() == b.next_u64()


def test_floats_in_unit_interval():
    vals = SplitMix64(7).fill_float(10_000)
    assert vals.min() >= 0.0 and vals.max() < 1.0
    u = SplitMix64(7).uniform(10_000, -0.5, 0.5)
    assert u.min() >= -0.5 and u.max() < 0.5


def test_shuffle_is_deterministic_permutation():
    items = list(range(100))
    a = items[:]
    SplitMix64(3).shuffle(a)
    b = items[:]
    SplitMix64(3).shuffle(b)
    assert a == b
    assert sorted(a) == items
    c = items[:]
    SplitMix64(4).shuffle(c)
    assert c != a


def test_derive_seed_separates_streams():
    seeds = {derive_seed(5, salt, epoch) for salt in (1, 2) for epoch in range(100)}
    assert len(seeds) == 200
    assert derive_seed(5, 1, 3) == derive_seed(5, 1, 3)


@pytest.mark.parametrize("seed", [-1, 0, 2**64 - 1, 2**70])
def test_derive_seed_matches_scalar_reference(seed):
    for salts in [(), (1,), (0x494E4954,), (0x53485546, 3), (-1, 2**70, 7), (2**64 - 1, 0, 0)]:
        assert derive_seed(seed, *salts) == derive_seed_scalar(seed, *salts)
    # with no salt the fold is the stream's first draw; seeds are taken mod 2^64
    assert derive_seed(seed) == splitmix64_sequence(seed, 1)[0]
    assert derive_seed(0, 0x53485546, 3) == 0x65B61C6FAE6F0655


def test_shuffle_of_fewer_than_two_items_draws_nothing():
    gen = SplitMix64(3)
    for items in ([], [7]):
        gen.shuffle(items)
    assert gen.counter == 0 and gen.next_u64() == splitmix64_sequence(3, 1)[0]


@pytest.mark.parametrize("draw", [lambda g: g.fill_u64(-2), lambda g: g.fill_float(-2),
                                  lambda g: g.uniform(-2, 0.0, 1.0)],
                         ids=["fill_u64", "fill_float", "uniform"])
def test_negative_draw_count_is_refused_and_draws_nothing(draw):
    gen = SplitMix64(3)
    gen.next_u64()
    with pytest.raises(ValueError, match=r"^draw count must be >= 0, got -2$"):
        draw(gen)
    assert gen.counter == 1 and gen.next_u64() == splitmix64_sequence(3, 2)[1]
