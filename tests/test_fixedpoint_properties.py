"""Property tests: the vectorised shift-add kernel, with one constant or a
bank of them, against its scalar oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kwsflow.fixedpoint import (  # noqa: E402
    FixedValue,
    QFormat,
    ShiftAddApprox,
    apply_shift_add,
    saturate,
    shift_add_raw_array,
)


@st.composite
def formats(draw, max_bits=32):
    total = draw(st.integers(2, max_bits))
    return QFormat(total, draw(st.integers(0, total - 1)), draw(st.booleans()))


@st.composite
def approxs(draw):
    shifts = sorted(draw(st.sets(st.integers(0, 34), max_size=4)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(shifts),
                          max_size=len(shifts)))
    terms = tuple(zip(signs, shifts))
    return ShiftAddApprox(terms, sum(s * 2.0 ** -k for s, k in terms))


def raws(fmt: QFormat, lo: int, hi: int):
    edges = [v for v in (fmt.raw_min, fmt.raw_min + 1, -1, 0, 1, fmt.raw_max - 1,
                         fmt.raw_max) if lo <= v <= hi]
    return st.lists(st.one_of(st.sampled_from(edges), st.integers(lo, hi)),
                    min_size=1, max_size=24)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shift_add_raw_array_matches_scalar_oracle(data):
    fmt = data.draw(formats())
    a = data.draw(approxs())
    xs = data.draw(raws(fmt, fmt.raw_min, fmt.raw_max))
    got = shift_add_raw_array(np.array(xs, dtype=np.int64), a, fmt)
    want = [apply_shift_add(FixedValue(x, fmt), a).raw for x in xs]
    assert got.dtype == np.int64
    assert got.tolist() == want
    # a bank of constants with differing term counts, one per column,
    # broadcast against the samples as a column
    bank = data.draw(st.lists(approxs(), min_size=1, max_size=6))
    got = shift_add_raw_array(np.array(xs, dtype=np.int64)[:, np.newaxis],
                              np.array(bank, dtype=object), fmt)
    want = [[apply_shift_add(FixedValue(x, fmt), b).raw for b in bank] for x in xs]
    assert got.dtype == np.int64
    assert got.tolist() == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shift_add_raw_array_saturates_inputs_beyond_the_edges(data):
    # raw inputs up to twice the format's range; the oracle runs in a
    # 32-bit integer format wide enough that it never saturates itself
    fmt = data.draw(formats(max_bits=24))
    a = data.draw(approxs())
    xs = data.draw(raws(fmt, 2 * fmt.raw_min - 1, 2 * fmt.raw_max + 1))
    wide = QFormat(32, 0)
    got = shift_add_raw_array(np.array(xs, dtype=np.int64), a, fmt)
    want = [saturate(apply_shift_add(FixedValue(x, wide), a).raw, fmt) for x in xs]
    assert got.tolist() == want
