"""Scalar reference semantics that the library's array kernels are tested against.

kwsflow runs its fixed-point datapath on raw integer arrays only.  The
scalar forms below define what each array helper in kwsflow.fixedpoint
must compute element by element, dft_reference is the direct DFT the
FFT is checked against, and fft_r22_recursive is the float FFT's former
recursive form, whose bits the level loop must keep.  Nothing in the
package imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from kwsflow.fixedpoint import QFormat, ShiftAddApprox
from kwsflow.frontend import _twiddles

ArithKind = Literal["add", "sub", "mul"]


@dataclass(frozen=True)
class FixedValue:
    """One fixed-point sample: raw integer plus its format."""

    raw: int
    format: QFormat

    def __post_init__(self) -> None:
        if not self.format.raw_min <= self.raw <= self.format.raw_max:
            raise ValueError(
                f"raw {self.raw} outside format range "
                f"[{self.format.raw_min}, {self.format.raw_max}]"
            )


def saturate(raw: int, fmt: QFormat) -> int:
    """Clamp a raw integer into the format's representable range."""
    return min(max(raw, fmt.raw_min), fmt.raw_max)


def _rshift_round_even(v: int, s: int) -> int:
    """Arithmetic right shift by s with round-to-nearest, ties to even."""
    if s <= 0:
        return v << -s
    q = v >> s
    r = v - (q << s)
    half = 1 << (s - 1)
    if r > half or (r == half and (q & 1)):
        q += 1
    return q


def quantize(x: float, fmt: QFormat) -> FixedValue:
    """Round a real to the raw grid (nearest even), saturating at the edges."""
    scaled = x * (1 << fmt.frac_bits)
    # round() on float is round-half-even, matching the grid convention
    raw = round(scaled)
    return FixedValue(saturate(raw, fmt), fmt)


def to_real(v: FixedValue) -> float:
    """Exact real value of a fixed-point sample."""
    return v.raw * v.format.lsb


def fx_arith(a: FixedValue, b: FixedValue, kind: ArithKind) -> FixedValue:
    """Saturating add/sub/mul of two values sharing a format.

    Multiplication computes the exact double-width product, then
    rescales back to the operand format with round-to-nearest-even.
    """
    if a.format != b.format:
        raise ValueError(f"format mismatch: {a.format} vs {b.format}")
    fmt = a.format
    if kind == "add":
        raw = a.raw + b.raw
    elif kind == "sub":
        raw = a.raw - b.raw
    elif kind == "mul":
        raw = _rshift_round_even(a.raw * b.raw, fmt.frac_bits)
    else:
        raise ValueError(f"unknown arithmetic kind: {kind!r}")
    return FixedValue(saturate(raw, fmt), fmt)


def apply_shift_add(x: FixedValue, a: ShiftAddApprox) -> FixedValue:
    """Multiply by a CSD constant using arithmetic shifts only.

    Each partial is x >> shift with floor semantics (what a hardware
    arithmetic shifter does); the signed sum saturates to x's format.
    """
    acc = 0
    for sign, shift in a.terms:
        acc += sign * (x.raw >> shift)
    return FixedValue(saturate(acc, x.format), x.format)


def dft_reference(frame: np.ndarray) -> np.ndarray:
    """Direct O(N^2) DFT in double precision; the exactness oracle."""
    x = np.asarray(frame, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    m = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return m @ x


def fft_r22_recursive(x: np.ndarray) -> np.ndarray:
    """Radix-2^2 DIF recursion on (frames, N) arrays, double precision."""
    n = x.shape[1]
    if n == 1:
        return x
    if n == 2:
        return np.stack([x[:, 0] + x[:, 1], x[:, 0] - x[:, 1]], axis=1)
    q = n // 4
    a, b, c, d = (x[:, k * q : (k + 1) * q] for k in range(4))
    # first butterfly stage (span N/2)
    t0, t1 = a + c, b + d
    t2, t3 = a - c, b - d
    # second stage with trivial -j rotation on the cross branch
    u0 = t0 + t1
    u1 = t0 - t1
    u2 = t2 - 1j * t3
    u3 = t2 + 1j * t3
    w1, w2, w3 = _twiddles(n)
    sub0 = fft_r22_recursive(u0)
    sub1 = fft_r22_recursive(u2 * w1)
    sub2 = fft_r22_recursive(u1 * w2)
    sub3 = fft_r22_recursive(u3 * w3)
    out = np.empty_like(x)
    out[:, 0::4] = sub0
    out[:, 1::4] = sub1
    out[:, 2::4] = sub2
    out[:, 3::4] = sub3
    return out
