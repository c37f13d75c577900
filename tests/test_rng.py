import numpy as np
import pytest

from xorland.rng import RngSpec

_TOP = (1 << 64) - 1


@pytest.mark.parametrize("stream", [0, _TOP])
@pytest.mark.parametrize("seed", [0, 1, _TOP])
@pytest.mark.parametrize("jump", [0, 1, 7])
def test_sub_stream_is_jumped_stream(jump, seed, stream):
    # the counter is set directly; Philox.jumped is the reference
    key = np.array([seed, stream], dtype=np.uint64)
    want_bg = np.random.Philox(key=key).jumped(jump)
    got = RngSpec(seed, stream).generator(jump)
    for part in ("counter", "key"):
        assert np.array_equal(got.bit_generator.state["state"][part], want_bg.state["state"][part])
    want = np.random.Generator(want_bg)
    assert np.array_equal(got.integers(0, 1 << 63, size=9, dtype=np.int64),
                          want.integers(0, 1 << 63, size=9, dtype=np.int64))
    assert got.random() == want.random()


def test_last_sub_stream_is_distinct():
    first, last = RngSpec(3).generator(0), RngSpec(3).generator(_TOP)
    assert last.bit_generator.state["state"]["counter"].tolist() == [0, 0, _TOP, 0]
    assert first.integers(0, 1 << 63, size=4).tolist() != last.integers(0, 1 << 63, size=4).tolist()


@pytest.mark.parametrize("jump", [-1, 1 << 64])
def test_jump_out_of_range_rejected(jump):
    with pytest.raises(ValueError, match="jump"):
        RngSpec(0).generator(jump)


@pytest.mark.parametrize("field", ["seed", "stream"])
@pytest.mark.parametrize("value", [-1, 1 << 64])
def test_seed_and_stream_out_of_range_rejected(field, value):
    # masked to 64 bits, -1 and 2**64 - 1 would name one generator under two specs
    with pytest.raises(ValueError, match=r"seed and stream must be in \[0, 2\*\*64\)"):
        RngSpec(**{"seed": 0, field: value})
