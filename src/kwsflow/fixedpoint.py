"""Fixed-point formats and saturating arithmetic on raw integer arrays.

Values are raw two's-complement integers against a Q-format (total bits,
fraction bits).  Overflow always saturates, never wraps.
Constants can be decomposed into canonical-signed-digit (CSD) form so a
multiply becomes a handful of shifts and adds, mirroring a
multiplierless hardware datapath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class QFormat:
    """Signed Q-format descriptor: total bit count (sign included), fraction bits."""

    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if not 2 <= self.total_bits <= 32:
            raise ValueError(f"total_bits must be in 2..32, got {self.total_bits}")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError(
                f"frac_bits must be in 0..{self.total_bits - 1}, got {self.frac_bits}"
            )

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def lsb(self) -> float:
        """Weight of one raw unit, 2^-frac_bits."""
        return 2.0 ** -self.frac_bits


@dataclass(frozen=True)
class ShiftAddApprox:
    """A constant as a signed sum of powers of two: value = sum s * 2^-k.

    Terms are (sign, shift) with shifts strictly increasing and at most
    one term per shift, so the value is realizable as one shifter and
    one adder per term.
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        shifts = [k for _, k in self.terms]
        if shifts != sorted(set(shifts)):
            raise ValueError(f"shifts must be strictly increasing: {shifts}")
        if any(s not in (-1, 1) or k < 0 for s, k in self.terms):
            raise ValueError(f"terms must be (+-1, shift>=0): {self.terms}")

    @property
    def value(self) -> float:
        return sum(s * 2.0 ** -k for s, k in self.terms)


def approx_csd(c: float, max_terms: int, max_shift: int) -> ShiftAddApprox:
    """Greedy CSD decomposition of a constant |c| < 2.

    Repeatedly appends the signed power of two closest to the residual
    (ties broken toward the smaller shift) until the residual is zero,
    no term improves it, or max_terms is reached.
    """
    if not abs(c) < 2:
        raise ValueError(f"|c| must be < 2, got {c}")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if not 0 <= max_shift <= 31:
        raise ValueError("max_shift must be in 0..31")

    terms: list[tuple[int, int]] = []
    residual = c
    for _ in range(max_terms):
        if residual == 0.0:
            break
        sign = 1 if residual > 0 else -1
        best_k = None
        best_err = abs(residual)  # only accept strict improvement
        for k in range(max_shift + 1):
            err = abs(residual - sign * 2.0 ** -k)
            if err < best_err:
                best_err = err
                best_k = k
        if best_k is None:
            break
        if terms and best_k <= terms[-1][1]:
            break
        terms.append((sign, best_k))
        residual -= sign * 2.0 ** -best_k
    return ShiftAddApprox(tuple(terms))


# ---------------------------------------------------------------------------
# Vectorized raw-integer helpers used by the bit-accurate pipeline, on int64 arrays or the cheapest word
# each stage's bound allows: int16 FFT words up to 8 bits, float32 ones holding exact integers at 9-12
# bits, else int32; int32 window and DCT words; float64 mel products where they stay exact integers.
# Same semantics as the scalar oracles in tests/oracles.py, which the property tests compare them against.


def quantize_array(x: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Vectorized quantize: real array -> saturated raw int64 array."""
    raw = np.multiply(x, 1 << fmt.frac_bits, dtype=np.float64)
    return saturate_array(np.rint(raw, out=raw), fmt, out=raw).astype(np.int64)


def to_real_array(raw: np.ndarray, fmt: QFormat) -> np.ndarray:
    return raw.astype(np.float64) * fmt.lsb


def saturate_array(raw: np.ndarray, fmt: QFormat, out: np.ndarray | None = None) -> np.ndarray:
    """raw clamped to fmt's range in raw's own dtype, which must hold fmt's
    bounds; out=raw clamps in place.  The only clamp of a fixed-point word."""
    # bounds in raw's dtype keep int32 words int32 and spare the np.iinfo checks
    # that Python-int bounds cost; the method skips the module function's
    # dispatch, and one clip pass beats np.maximum then np.minimum on int32
    word = raw.dtype.type
    return raw.clip(word(fmt.raw_min), word(fmt.raw_max), out=out)


def rshift_round_even_array(v: np.ndarray, s: int, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized arithmetic right shift with round-to-nearest-even: q = v >> s
    rounds up when (v mod 2^s) + (q & 1) > 2^(s-1), a sum of at most 2^s.  q is
    written into out, if given, which must not overlap v; v is left unchanged.  Float
    words holding integers scale exactly by 2^-s, np.rint rounds half to even, out may be v."""
    if v.dtype.kind == "f":
        return np.rint(np.multiply(v, 2.0 ** -s, out=out) if s else v, out=out)
    if s <= 0:
        return np.left_shift(v, -s, out=out)
    q = np.right_shift(v, s, out=out)
    q += (v & ((1 << s) - 1)) + (q & 1) > 1 << (s - 1)
    return q


def mul_raw_array(a: np.ndarray, b: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Saturating fixed-point multiply on raw arrays sharing a format."""
    if fmt.total_bits * 2 > 62:
        raise ValueError("product would overflow int64")
    prod = a.astype(np.int64) * b.astype(np.int64)
    return saturate_array(rshift_round_even_array(prod, fmt.frac_bits), fmt)


def shift_add_planes(a: ShiftAddApprox | Sequence | np.ndarray) -> np.ndarray:
    """Sign/shift planes of a constant or a (nested) array of them: int64 (..., depth, 2),
    each constant's terms padded with (0, 0) to the deepest one's count."""
    consts = np.asarray(a, dtype=object)
    depth = max([1] + [len(c.terms) for c in consts.flat])
    return np.array([c.terms + ((0, 0),) * (depth - len(c.terms)) for c in consts.flat],
                    dtype=np.int64).reshape(consts.shape + (depth, 2))


def shift_add_raw_array(raw: np.ndarray, planes: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Vectorized apply_shift_add on raw integer arrays, in the wider word of raw and planes (shift_add_planes),
    which broadcast against raw without their last two axes; a (0, 0) term adds 0."""
    acc = raw >> planes[..., 0, 1]
    acc *= planes[..., 0, 0]
    for t in range(1, planes.shape[-2]):
        term = raw >> planes[..., t, 1]
        term *= planes[..., t, 0]
        acc += term
    return saturate_array(acc, fmt, out=acc)
