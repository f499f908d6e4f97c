"""reclab's seeded streams: PCG64 held bit for bit to numpy's ``default_rng``, and SplitMix64.

Both PCG64 draws are held to numpy: the bounded ``integers`` and the
ziggurat ``normal``, alone and interleaved.

numpy's ``Generator`` is the oracle here and nowhere in ``src/``.  The
seed-11 values are literals, as numpy 2.4 draws them: NEP 19 lets a
later numpy change its ``Generator`` streams, and such a change must not
move what the pinned report bytes are held to.

SplitMix64 follows no numpy stream; its oracle is the scalar generator
in ``tests/oracles.py`` and its published first outputs at key 0.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import splitmix64_outputs
from reclab.pcg64 import _CHUNK, _LANES, _ZIG_R, PCG64, SplitMix64, _seed_state, _splitmix

SEED_11_STATE = [
    3926704849073358691, 2926583794887213564, 215141457385765089, 15564452721439488421
]
SEED_11_RAW = [0x20E9FA102240CC4E, 0x7FD0AC8ACC0D7A67, 0x99FBCBDE970C647C, 0x075829B0B650EBD3]
# integers(-2, 3, 27) and then integers(-2, 3, 9): the second call starts
# on the high half that the first one's odd count left over
SEED_11_ROW = [-2, -2, 1, 0, 0, 1, 1, -2, 0, -2, 0, 2, 0, -2, 0, -2, 1, 2, 2, 1, 2, -1, -2, 0, 0, 1, 2]
SEED_11_NEXT = [-1, 2, -2, -1, 1, -1, 1, 0, 0]
# integers(0, 2^31 + 1, 6): about half of all words are rejected at this span
SEED_11_WIDE = [1267085886, 1291707887, 1042610374, 317668847, 151227035, 1165533627]
SEED_11_NORMAL = [
    0.03419276725318417, 1.3597475403099617, 1.2247210785859324,
    -0.5103070767876675, -0.2979695111064471, -0.5273841930334252,
]
# normal 2712 (from 0) of seed 11 is its first from the ziggurat's tail, |x| > r
SEED_11_FIRST_TAIL = (2712, 3.7315614658206586)


def test_seed_11_golden_outputs():
    assert _seed_state(11) == SEED_11_STATE
    assert PCG64(11)._outputs(4).tolist() == SEED_11_RAW
    rng = PCG64(11)
    assert rng.integers(-2, 3, 27).tolist() == SEED_11_ROW
    assert rng.integers(-2, 3, 9).tolist() == SEED_11_NEXT
    assert PCG64(11).integers(0, 2**31 + 1, 6).tolist() == SEED_11_WIDE
    assert PCG64(11).normal(6).tolist() == SEED_11_NORMAL
    assert PCG64(11).normal(SEED_11_FIRST_TAIL[0] + 1)[-1] == SEED_11_FIRST_TAIL[1]
    # the first trig frequency takes both halves of one output, so the
    # coefficient after it is the second and third normal of the stream
    rng = PCG64(11)
    assert rng.integers(-3, 4, 2).tolist() == [-3, -3]
    assert rng.normal(2).tolist() == SEED_11_NORMAL[1:3]


# one long draw per range: past a row of lanes, past a chunk of words, and
# the 135 x 135 battery grid after its row, as the grid pipeline draws them
@pytest.mark.parametrize("seed", [0, 11, 2**32, 10**40, 2**200 + 3])
def test_long_draws_match_numpy(seed):
    ours, ref = PCG64(seed), np.random.default_rng(seed)
    for low, high, count in [
        (-2, 3, 135), (-2, 3, 135 * 135), (0, 2**31 + 1, _CHUNK + 3), (0, 2**32, 2 * _LANES + 1)
    ]:
        drawn = ours.integers(low, high, count)
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, ref.integers(low, high, size=count))


def _outputs_consumed(seed: int, state: int, at_least: int) -> int:
    """How many outputs take PCG64(seed) to ``state``, counting from ``at_least``."""
    probe = PCG64(seed)
    probe._outputs(at_least)
    steps = at_least
    while probe._state != state:
        probe._outputs(1)
        steps += 1
    return steps


@pytest.mark.parametrize("seed", [0, 11, 2**64 + 5])
def test_long_normal_draws_match_numpy(seed):
    count = 200_000
    ours, ref = PCG64(seed), np.random.default_rng(seed)
    drawn = ours.normal(count)
    expected = ref.normal(size=count)
    assert drawn.dtype == np.float64
    assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))
    # the stream holds tail draws and rejections, and stops where numpy's does
    assert np.abs(drawn).max() > _ZIG_R
    assert ours._state == ref.bit_generator.state["state"]["state"]
    assert _outputs_consumed(seed, ours._state, count) > count


def test_normal_leaves_the_spare_half_word_alone():
    # numpy's normal draws whole 64-bit outputs; the high half left by an odd
    # integers count is still the first word of the next integers draw
    ours, ref = PCG64(3), np.random.default_rng(3)
    assert np.array_equal(ours.integers(-3, 4, 1), ref.integers(-3, 4, size=1))
    assert np.array_equal(ours.normal(5), ref.normal(size=5))
    assert np.array_equal(ours.integers(-3, 4, 3), ref.integers(-3, 4, size=3))
    assert ours.normal(0).shape == (0,)


@pytest.mark.parametrize("seed", range(0, 40))
def test_trig_table_order_of_draws_matches_numpy(seed):
    # _random_trig_table draws two scalar integers(-3, 4) per frequency and two
    # scalar normals per kept coefficient; 300 rounds cover tails and wedges
    ours, ref = PCG64(seed), np.random.default_rng(seed)
    drawn, expected = [], []
    for _ in range(300):
        drawn += ours.integers(-3, 4, 2).tolist() + ours.normal(2).tolist()
        expected += [int(ref.integers(-3, 4)), int(ref.integers(-3, 4)), ref.normal(), ref.normal()]
    assert drawn == expected
    assert ours._state == ref.bit_generator.state["state"]["state"]


@given(
    seed=st.integers(0, 2**128),
    draws=st.lists(st.tuples(st.booleans(), st.integers(0, 400)), max_size=6),
)
def test_chained_normal_and_integer_draws_match_numpy(seed, draws):
    ours, ref = PCG64(seed), np.random.default_rng(seed)
    for normal, count in draws:
        if normal:
            assert np.array_equal(ours.normal(count), ref.normal(size=count))
        else:
            assert np.array_equal(ours.integers(-3, 4, count), ref.integers(-3, 4, size=count))
    assert np.array_equal(ours.integers(0, 2**32, 3), ref.integers(0, 2**32, size=3))


def test_seed_states_match_numpy_on_the_first_400_seeds():
    for seed in range(400):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        assert _seed_state(seed) == expected, seed


_SPANS = st.one_of(
    st.sampled_from([1, 2, 5, 2**31 + 1, 2**32 - 1, 2**32]), st.integers(1, 2**32)
)


@given(
    seed=st.integers(0, 2**256),
    draws=st.lists(
        st.tuples(st.integers(-(2**40), 2**40), _SPANS, st.integers(0, 301)), max_size=5
    ),
)
def test_chained_draws_match_numpy(seed, draws):
    ours, ref = PCG64(seed), np.random.default_rng(seed)
    for low, span, count in draws:
        drawn = ours.integers(low, low + span, count)
        assert np.array_equal(drawn, ref.integers(low, low + span, size=count))
    # the streams are still in step after the draws
    assert np.array_equal(ours.integers(0, 2**32, 3), ref.integers(0, 2**32, size=3))


def test_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        PCG64(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        SplitMix64(-1)


@pytest.mark.parametrize("low, high", [(0, 0), (3, 2), (0, 2**32 + 1)])
def test_span_outside_one_to_two_to_the_32_is_refused(low, high):
    with pytest.raises(ValueError, match="outside"):
        PCG64(0).integers(low, high, 1)


def test_splitmix_key_0_gives_the_published_first_outputs():
    published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    assert _splitmix(0, 0, 2).tolist() == published
    assert splitmix64_outputs(0, 2) == published
    # a block starting further on is the same stream
    assert _splitmix(0, 1, 1).tolist() == published[1:]


_SHAPES = st.one_of(
    st.integers(0, 300), st.tuples(st.integers(0, 9), st.integers(0, 60))
)


@given(seed=st.integers(0, 2**128), shapes=st.lists(_SHAPES, max_size=6))
def test_splitmix_draws_are_the_oracle_stream_cut_into_their_shapes(seed, shapes):
    rng = SplitMix64(seed)
    assert rng._key == _seed_state(seed)[0]
    drawn = [rng.random(shape) for shape in shapes]
    expected = [(z >> 11) * 2.0**-53 for z in splitmix64_outputs(rng._key, sum(d.size for d in drawn))]
    at = 0
    for shape, values in zip(shapes, drawn):
        assert values.shape == (shape if isinstance(shape, tuple) else (shape,))
        assert values.dtype == np.float64
        assert values.ravel().tolist() == expected[at:at + values.size]
        at += values.size


def test_splitmix_doubles_are_multiples_of_2_to_the_minus_53_in_the_unit_interval():
    x = SplitMix64(11).random((7, 100_000))
    scaled = x * 2.0**53
    assert (scaled == np.floor(scaled)).all()
    assert ((x >= 0.0) & (x < 1.0)).all()
    assert abs(x.mean() - 0.5) < 0.005


@pytest.mark.parametrize("seed", [0, 1, 11, 2**63, 2**64 - 1])
def test_splitmix_seeds_past_2_to_the_64_get_their_own_keys(seed):
    assert SplitMix64(seed)._key != SplitMix64(2**64 + seed)._key
    assert not np.array_equal(SplitMix64(seed).random(4), SplitMix64(2**64 + seed).random(4))
