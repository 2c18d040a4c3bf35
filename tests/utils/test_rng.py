"""Unit tests for repro.utils.rng."""

import random

import numpy as np
import pytest

from repro.utils.rng import (
    NODE_COINS,
    CoinClock,
    NodeCoins,
    ensure_rng,
    keyed_hash53,
    keyed_u01,
    keyed_u01_array,
    mix64,
    seed_link,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_int_is_deterministic(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_different_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()

    def test_generator_passes_through(self):
        rng = random.Random(3)
        assert ensure_rng(rng) is rng


class TestKeyedCoins:
    """u(seed, label, *key) is a pure function of its key."""

    def test_pure_and_separated_along_every_key_axis(self):
        a = keyed_u01(5, "node", 3, 1, 0)
        assert a == keyed_u01(5, "node", 3, 1, 0)
        others = [
            keyed_u01(6, "node", 3, 1, 0),
            keyed_u01(5, "drop", 3, 1, 0),
            keyed_u01(5, "node", 4, 1, 0),
            keyed_u01(5, "node", 3, 2, 0),
            keyed_u01(5, "node", 3, 1, 1),
        ]
        assert a not in others

    def test_array_form_matches_scalar_chain(self):
        uids = np.array([0, 7, -3, 2**63 - 1, -(2**63)], dtype=np.int64)
        got = keyed_u01_array(11, "node", uids, 4, 2)
        assert got.dtype == np.float64
        assert got.tolist() == [keyed_u01(11, "node", int(u), 4, 2) for u in uids]

    def test_hash53_ranks_like_the_uniforms(self):
        uids = np.arange(1000, dtype=np.int64)
        h = keyed_hash53(seed_link(3, "node"), uids, 1, 0)
        assert np.array_equal(h * 2.0**-53, keyed_u01_array(3, "node", uids, 1, 0))
        # Per-element links (several seeds in one array) fold the same way.
        links = np.array([seed_link(s, "node") for s in (3, 4)], dtype=np.uint64)
        two = keyed_hash53(links, np.array([5, 5]), 1, 0)
        assert two.tolist() == [int(keyed_hash53(seed_link(s, "node"), 5, 1, 0))
                                for s in (3, 4)]

    def test_values_are_uniform(self):
        u = keyed_u01_array(7, "node", np.arange(20_000, dtype=np.int64), 1, 0)
        assert ((u >= 0) & (u < 1)).all()
        assert abs(float(u.mean()) - 0.5) < 0.02

    def test_mix64_is_the_splitmix64_finalizer(self):
        # The published SplitMix64 stream for seed 1234567: state += gamma,
        # then the finalizer.
        state, got = 1234567, []
        for _ in range(5):
            state = (state + 0x9E3779B97F4A7C15) % 2**64
            got.append(mix64(state))
        assert got == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821,
        ]

    def test_coin_law_is_pinned(self):
        # Changing the label hash, the link order or the 53-bit cut would
        # silently change every recorded run; these values must not move.
        assert keyed_u01(0, NODE_COINS, 0, 1, 0).hex() == "0x1.05d33e396b590p-1"
        assert keyed_u01(7, "crash", -1).hex() == "0x1.033ef22df40c1p-1"
        assert keyed_u01(2**64 - 1, "drop", 2**63 - 1, 3, 5).hex() == "0x1.24bc5a899b2c0p-5"


class TestNodeCoins:
    """A node's k-th draw in round r is u(seed, "node", uid, r, k)."""

    def test_draws_follow_the_clock_and_the_draw_count(self):
        clock = CoinClock()
        coins = NodeCoins.for_nodes(9, [42, -1], clock)
        assert coins[0].random() == keyed_u01(9, NODE_COINS, 42, 0, 0)
        assert coins[0].random() == keyed_u01(9, NODE_COINS, 42, 0, 1)
        clock.round = 3
        assert coins[0].random() == keyed_u01(9, NODE_COINS, 42, 3, 0)
        assert coins[1].random() == keyed_u01(9, NODE_COINS, -1, 3, 0)
        clock.round = 4
        assert coins[1].random() == keyed_u01(9, NODE_COINS, -1, 4, 0)

    def test_other_nodes_consumption_is_irrelevant(self):
        clock = CoinClock()
        a, b = NodeCoins.for_nodes(5, [3, 4], clock)
        b.random()
        b.random()
        (fresh,) = NodeCoins.for_nodes(5, [3], CoinClock())
        assert a.random() == fresh.random()

    @pytest.mark.parametrize("uid", [0, 1, -1, 2**40 + 3, 2**63 - 1, -(2**63)])
    def test_scalar_coins_match_the_array_kernel(self, uid):
        # NodeCoins folds python ints, the dense kernels int64 arrays: the
        # two's-complement wrap of any int64 uid must agree.
        clock = CoinClock()
        (coins,) = NodeCoins.for_nodes(13, [uid], clock)
        uids = np.array([uid], dtype=np.int64)
        for round_no in (0, 1, 2, 2**31):
            clock.round = round_no
            for draw in range(3):
                want = keyed_u01_array(13, NODE_COINS, uids, round_no, draw)
                assert coins.random() == float(want[0])

    def test_randrange_is_floor_of_u_times_bound(self):
        clock = CoinClock()
        clock.round = 2
        (coins,) = NodeCoins.for_nodes(1, [8], clock)
        for draw, bound in enumerate((1, 2, 7, 1000)):
            got = coins.randrange(bound)
            assert got == int(keyed_u01(1, NODE_COINS, 8, 2, draw) * bound)
            assert 0 <= got < bound
        with pytest.raises(ValueError):
            coins.randrange(0)
