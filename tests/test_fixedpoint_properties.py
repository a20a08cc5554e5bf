"""Property tests: each vectorised raw-integer helper against its scalar
oracle, elementwise, on random formats and on values at and beyond the
saturation edges."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kwsflow.fixedpoint import (  # noqa: E402
    QFormat,
    ShiftAddApprox,
    mul_raw_array,
    quantize_array,
    rshift_round_even_array,
    saturate_array,
    shift_add_planes,
    shift_add_raw_array,
)
from oracles import (  # noqa: E402
    FixedValue,
    _rshift_round_even,
    apply_shift_add,
    fx_arith,
    quantize,
    saturate,
)


@st.composite
def formats(draw, max_bits=32):
    total = draw(st.integers(2, max_bits))
    return QFormat(total, draw(st.integers(0, total - 1)))


@st.composite
def approxs(draw):
    shifts = sorted(draw(st.sets(st.integers(0, 34), max_size=4)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(shifts),
                          max_size=len(shifts)))
    return ShiftAddApprox(tuple(zip(signs, shifts)))


def raws(fmt: QFormat, lo: int, hi: int):
    edges = [v for v in (fmt.raw_min, fmt.raw_min + 1, -1, 0, 1, fmt.raw_max - 1,
                         fmt.raw_max) if lo <= v <= hi]
    return st.lists(st.one_of(st.sampled_from(edges), st.integers(lo, hi)),
                    min_size=1, max_size=24)


def beyond(fmt: QFormat):
    """Raw values up to twice the format's range on either side."""
    return raws(fmt, 2 * fmt.raw_min - 1, 2 * fmt.raw_max + 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shift_add_raw_array_matches_scalar_oracle(data):
    fmt = data.draw(formats())
    a = data.draw(approxs())
    xs = data.draw(raws(fmt, fmt.raw_min, fmt.raw_max))
    got = shift_add_raw_array(np.array(xs, dtype=np.int64), shift_add_planes(a), fmt)
    want = [apply_shift_add(FixedValue(x, fmt), a).raw for x in xs]
    assert got.dtype == np.int64
    assert got.tolist() == want
    # a bank of constants with differing term counts, one per column,
    # broadcast against the samples as a column
    bank = data.draw(st.lists(approxs(), min_size=1, max_size=6))
    got = shift_add_raw_array(np.array(xs, dtype=np.int64)[:, np.newaxis],
                              shift_add_planes(bank), fmt)
    want = [[apply_shift_add(FixedValue(x, fmt), b).raw for b in bank] for x in xs]
    assert got.dtype == np.int64
    assert got.tolist() == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shift_add_raw_array_saturates_inputs_beyond_the_edges(data):
    # the oracle runs in a 32-bit integer format wide enough that it
    # never saturates itself
    fmt = data.draw(formats(max_bits=24))
    a = data.draw(approxs())
    xs = data.draw(beyond(fmt))
    wide = QFormat(32, 0)
    got = shift_add_raw_array(np.array(xs, dtype=np.int64), shift_add_planes(a), fmt)
    want = [saturate(apply_shift_add(FixedValue(x, wide), a).raw, fmt) for x in xs]
    assert got.tolist() == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quantize_array_matches_quantize(data):
    fmt = data.draw(formats())
    # reals up to twice the range, the range edges and exact half-LSB ties
    lo, hi = 2 * fmt.raw_min - 1, 2 * fmt.raw_max + 1
    grid = st.integers(2 * lo, 2 * hi).map(lambda h: h / 2 * fmt.lsb)
    xs = data.draw(st.lists(st.one_of(
        grid, st.floats(lo * fmt.lsb, hi * fmt.lsb, allow_nan=False)), min_size=1, max_size=24))
    got = quantize_array(np.array(xs), fmt)
    assert got.dtype == np.int64
    assert got.tolist() == [quantize(x, fmt).raw for x in xs]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_saturate_array_matches_saturate(data):
    fmt = data.draw(formats())
    xs = data.draw(beyond(fmt))
    got = saturate_array(np.array(xs, dtype=np.int64), fmt)
    assert got.tolist() == [saturate(x, fmt) for x in xs]
    if fmt.total_bits < 31:  # twice the range still fits int32
        got32 = saturate_array(np.array(xs, dtype=np.int32), fmt)
        assert got32.dtype == np.int32 and got32.tolist() == got.tolist()
        # in place: out= the input clamps that array and returns it
        raw = np.array(xs, dtype=np.int32)
        assert saturate_array(raw, fmt, out=raw) is raw
        assert raw.dtype == np.int32 and raw.tolist() == got.tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rshift_round_even_array_matches_scalar(data):
    # negative and zero shifts are left shifts; values are sized so the
    # result stays below 2^62, and a right shift also meets the dtype's extremes
    s = data.draw(st.integers(-16, 62))
    bound = 1 << (46 if s >= 0 else 46 + s)
    ties = st.integers(-(bound >> max(s, 0)), bound >> max(s, 0)).map(
        lambda q: (2 * q + 1) << (s - 1) if s > 0 else q)
    vs = data.draw(st.lists(st.one_of(st.integers(-bound, bound), ties,
                                      st.sampled_from((-1, 0, 1))), min_size=1, max_size=24))
    i64, i32 = np.iinfo(np.int64), np.iinfo(np.int32)
    if s > 0:
        vs += [i64.min, i64.min + 1, i64.max - 1, i64.max]
    got = rshift_round_even_array(np.array(vs, dtype=np.int64), s)
    assert got.tolist() == [_rshift_round_even(v, s) for v in vs]
    small = [v for v in vs if abs(_rshift_round_even(v, s)) < 2**31 and abs(v) < 2**31]
    if 0 < s < 31:
        small += [i32.min, i32.min + 1, i32.max - 1, i32.max]
    if small and s < 31:
        got32 = rshift_round_even_array(np.array(small, dtype=np.int32), s)
        assert got32.dtype == np.int32
        assert got32.tolist() == [_rshift_round_even(v, s) for v in small]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rshift_round_even_array_writes_into_out(data):
    # the FFT rounds its twiddle products into a strided view of a level's dead
    # words: the result lands there, in v's dtype, and v keeps its words
    dtype = data.draw(st.sampled_from((np.int32, np.int64)))
    info = np.iinfo(dtype)
    s = data.draw(st.one_of(st.just(0), st.integers(1, info.bits - 2)))  # below bits - 1 the sum fits
    vs = data.draw(st.lists(st.one_of(st.integers(info.min, info.max),
                                      st.sampled_from((info.min, info.max, -1, 0, 1))), min_size=1, max_size=24))
    v = np.array(vs, dtype=dtype)
    out = np.full(2 * len(vs), 7, dtype=dtype)[::2]
    assert rshift_round_even_array(v, s, out=out) is out
    assert v.tolist() == vs
    assert out.dtype == dtype and out.tolist() == [_rshift_round_even(x, s) for x in vs]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mul_raw_array_matches_fx_arith(data):
    fmt = data.draw(formats(max_bits=31))
    a = data.draw(raws(fmt, fmt.raw_min, fmt.raw_max))
    b = data.draw(st.lists(st.one_of(st.sampled_from((fmt.raw_min, fmt.raw_max, 0)),
                                     st.integers(fmt.raw_min, fmt.raw_max)),
                           min_size=len(a), max_size=len(a)))
    got = mul_raw_array(np.array(a), np.array(b), fmt)
    want = [fx_arith(FixedValue(x, fmt), FixedValue(y, fmt), "mul").raw for x, y in zip(a, b)]
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_mul_raw_array_refuses_formats_whose_product_overflows_int64():
    with pytest.raises(ValueError, match="overflow"):
        mul_raw_array(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), QFormat(32, 16))
