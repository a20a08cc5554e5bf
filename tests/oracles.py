"""Scalar reference semantics that the library's array kernels are tested against.

kwsflow runs its fixed-point datapath on raw integer arrays only.  The
scalar forms below define what each array helper in kwsflow.fixedpoint
must compute element by element, dft_reference is the direct DFT the
FFT is checked against, and fft_r22_recursive is the float FFT's
recursive form, whose bits the level loop must keep.  Nothing in the
package imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from kwsflow.fixedpoint import QFormat, ShiftAddApprox

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


def twiddles(n: int) -> np.ndarray:
    """(3, n/4) table: row k - 1 holds W_n^(k i) = exp(-2 pi j k i / n)."""
    return np.exp(-2j * np.pi * (np.arange(1, 4)[:, np.newaxis] * np.arange(n // 4)) / n)


def complex_frames(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """complex128 frames with exactly these parts: re + 1j * im would add
    0 * im to re and flip the sign of a zero part."""
    x = np.empty(np.shape(re), dtype=np.complex128)
    x.real, x.imag = re, im
    return x


def fft_r22_recursive(x: np.ndarray) -> np.ndarray:
    """Radix-2^2 DIF recursion on (frames, N) complex128 arrays, double precision.

    -j t is (t.im, -t.re), a size-4 level takes no twiddle (each is 1), and
    each twiddle product u w is split into real products, re = u.re w.re -
    u.im w.im and im = u.im w.re + u.re w.im, each rounded on its own, so no
    bit depends on numpy's complex multiply loop.
    """
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
    mj_t3 = complex_frames(t3.imag, -t3.real)
    u0 = t0 + t1
    u1 = t0 - t1
    u2 = t2 + mj_t3
    u3 = t2 - mj_t3

    def twiddled(u, w):
        return complex_frames(u.real * w.real - u.imag * w.imag, u.imag * w.real + u.real * w.imag)

    if n > 4:  # every twiddle of a size-4 level is 1
        w1, w2, w3 = twiddles(n)
        u2, u1, u3 = twiddled(u2, w1), twiddled(u1, w2), twiddled(u3, w3)
    sub0 = fft_r22_recursive(u0)
    sub1 = fft_r22_recursive(u2)
    sub2 = fft_r22_recursive(u1)
    sub3 = fft_r22_recursive(u3)
    out = np.empty_like(x)
    out[:, 0::4] = sub0
    out[:, 1::4] = sub1
    out[:, 2::4] = sub2
    out[:, 3::4] = sub3
    return out
