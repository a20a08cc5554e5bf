"""Fixed-point arithmetic against exact-arithmetic oracles."""

import numpy as np
import pytest

from kwsflow.fixedpoint import (
    QFormat,
    ShiftAddApprox,
    approx_csd,
    shift_add_planes,
)
from oracles import FixedValue, apply_shift_add, fx_arith, quantize, to_real


def test_quantize_zero_is_raw_zero():
    for fmt in (QFormat(7, 6), QFormat(12, 4), QFormat(8, 0)):
        assert quantize(0.0, fmt).raw == 0


def test_quantize_alpha_31_over_32_exact():
    v = quantize(31 / 32, QFormat(7, 5))
    assert v.raw == 31
    assert to_real(v) == 0.96875


def test_quantize_saturates_instead_of_wrapping():
    fmt = QFormat(7, 6)
    assert quantize(1.5, fmt).raw == 63
    assert quantize(-1.5, fmt).raw == -64


def test_quantize_round_trip_bound():
    rng = np.random.default_rng(1)
    for fmt in (QFormat(7, 6), QFormat(10, 8)):
        lo = fmt.raw_min / 2**fmt.frac_bits
        hi = fmt.raw_max / 2**fmt.frac_bits
        for x in rng.uniform(lo, hi, 200):
            err = abs(to_real(quantize(float(x), fmt)) - x)
            assert err <= 2.0 ** (-fmt.frac_bits - 1) + 1e-15


def test_to_real_examples():
    fmt = QFormat(7, 6)
    x = 0.3
    assert abs(to_real(quantize(x, fmt)) - x) <= 2.0 ** -7


def test_fx_arith_add_sub_mul():
    fmt = QFormat(8, 6)
    a = quantize(0.25, fmt)
    b = quantize(0.25, fmt)
    assert to_real(fx_arith(a, b, "add")) == 0.5
    assert to_real(fx_arith(a, b, "sub")) == 0.0
    h = quantize(0.5, fmt)
    assert to_real(fx_arith(h, h, "mul")) == 0.25


def test_fx_arith_saturates_at_max():
    fmt = QFormat(7, 6)
    top = quantize(10.0, fmt)  # already saturated to max
    assert fx_arith(top, top, "add").raw == fmt.raw_max


def test_fx_arith_never_leaves_format_range():
    fmt = QFormat(5, 3)
    raws = range(fmt.raw_min, fmt.raw_max + 1)
    for ra in raws:
        for rb in raws:
            for kind in ("add", "sub", "mul"):
                out = fx_arith(FixedValue(ra, fmt), FixedValue(rb, fmt), kind)
                assert fmt.raw_min <= out.raw <= fmt.raw_max


def test_approx_csd_examples():
    assert approx_csd(0.5, 1, 8).terms == ((1, 1),)
    assert approx_csd(0.969, 2, 8).terms == ((1, 0), (-1, 5))
    assert approx_csd(0.75, 2, 8).terms == ((1, 0), (-1, 2))
    assert approx_csd(0.0, 2, 8).terms == ()


def test_approx_csd_deterministic_and_converging():
    for c in (0.3, 0.7, -0.9, 1.1):
        a1 = approx_csd(c, 3, 8)
        a2 = approx_csd(c, 3, 8)
        assert a1.terms == a2.terms
        # residual after each prefix of terms strictly shrinks
        resid = abs(c)
        acc = 0.0
        for sign, shift in a1.terms:
            acc += sign * 2.0 ** -shift
            assert abs(c - acc) < resid
            resid = abs(c - acc)


def test_approx_csd_residual_bound():
    for c in np.linspace(-1.0, 1.0, 81):
        a = approx_csd(float(c), 8, 6)
        assert abs(a.value - c) <= 2.0 ** -6 + 1e-12


def test_apply_shift_add_examples():
    fmt = QFormat(8, 6)
    x = quantize(0.5, fmt)
    assert to_real(apply_shift_add(x, approx_csd(0.5, 1, 8))) == 0.25


def test_apply_shift_add_alpha_on_unit_input():
    fmt = QFormat(7, 5)  # holds 1.0 exactly (Q2.5)
    one = quantize(1.0, fmt)
    out = apply_shift_add(one, approx_csd(0.969, 2, 8))
    assert to_real(out) == 0.96875


def test_apply_shift_add_matches_multiply_exhaustively():
    fmt = QFormat(7, 6)
    for c in (0.3, 0.5, 0.75, 0.969, -0.42):
        a = approx_csd(c, 2, 6)
        for raw in range(fmt.raw_min, fmt.raw_max + 1):
            x = FixedValue(raw, fmt)
            got = to_real(apply_shift_add(x, a))
            want = to_real(x) * c
            assert abs(got - want) <= abs(to_real(x)) * 2 ** -6 + 2 * 2 ** -6


def test_shift_add_planes_pad_each_constant_to_the_deepest():
    three = ShiftAddApprox(((1, 0), (-1, 2), (1, 5)))
    one = ShiftAddApprox(((-1, 3),))
    zero = ShiftAddApprox(())
    assert shift_add_planes(one).tolist() == [[-1, 3]]
    assert shift_add_planes(zero).tolist() == [[0, 0]]
    planes = shift_add_planes([[three, one], [zero, one]])
    assert planes.dtype == np.int64 and planes.shape == (2, 2, 3, 2)
    assert planes[0, 0].tolist() == [[1, 0], [-1, 2], [1, 5]]
    assert planes[0, 1].tolist() == planes[1, 1].tolist() == [[-1, 3], [0, 0], [0, 0]]
    assert planes[1, 0].tolist() == [[0, 0]] * 3


def test_qformat_rejects_bad_shapes():
    with pytest.raises(ValueError):
        QFormat(1, 0)
    with pytest.raises(ValueError):
        QFormat(8, 8)
