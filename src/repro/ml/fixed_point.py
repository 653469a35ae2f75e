"""Fixed-point number formats for bespoke printed classifiers.

The paper trains SVMs with *low-precision inputs* and, post training,
quantizes weights and biases "to the lowest precision that can retain
acceptable accuracy".  The resulting integers are what gets hardwired into
the bespoke MUX storage and processed by the compute engine, so the software
model and the hardware model must share one, well-defined fixed-point
semantics.  This module is that single source of truth.

A :class:`FixedPointFormat` describes a two's-complement (or unsigned)
fixed-point number with ``integer_bits`` bits left of the binary point and
``fraction_bits`` bits right of it.  Quantization maps a real value to the
nearest representable value (with configurable rounding and saturation), and
the *integer code* of a value is the underlying integer that the hardware
manipulates::

    value  =  code * 2**(-fraction_bits)

Example
-------
>>> fmt = FixedPointFormat(integer_bits=1, fraction_bits=3, signed=True)
>>> fmt.total_bits
5
>>> print(fmt.quantize(0.3))
0.25
>>> print(fmt.to_code(0.3))
2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

ArrayLike = Union[float, int, Iterable, np.ndarray]

#: Supported rounding modes for :meth:`FixedPointFormat.quantize`.
ROUNDING_MODES = ("nearest", "floor", "ceil", "truncate")


@dataclass(frozen=True)
class FixedPointFormat:
    """A two's-complement or unsigned fixed-point format.

    Parameters
    ----------
    integer_bits:
        Number of bits to the left of the binary point, *excluding* the sign
        bit.  May be negative for purely fractional formats whose range is a
        sub-interval of ``(-1, 1)``.
    fraction_bits:
        Number of bits to the right of the binary point.  May be negative to
        represent coarse integer grids (multiples of ``2**|fraction_bits|``).
    signed:
        Whether a sign bit is present (two's complement).
    rounding:
        One of :data:`ROUNDING_MODES`; applied when a real value is quantized.
    saturate:
        If True (default) out-of-range values clip to the representable
        extremes; if False they raise :class:`OverflowError`.
    """

    integer_bits: int
    fraction_bits: int
    signed: bool = True
    rounding: str = "nearest"
    saturate: bool = True

    def __post_init__(self) -> None:
        if self.rounding not in ROUNDING_MODES:
            raise ValueError(
                f"rounding must be one of {ROUNDING_MODES}, got {self.rounding!r}"
            )
        if self.total_bits < 1:
            raise ValueError(
                "format must have at least one bit "
                f"(integer_bits={self.integer_bits}, fraction_bits={self.fraction_bits})"
            )

    # ------------------------------------------------------------------ #
    # Static properties of the format
    # ------------------------------------------------------------------ #
    @property
    def total_bits(self) -> int:
        """Total storage width in bits (including the sign bit if signed)."""
        return self.integer_bits + self.fraction_bits + (1 if self.signed else 0)

    @property
    def resolution(self) -> float:
        """The value of one least-significant bit."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def max_code(self) -> int:
        """Largest representable integer code."""
        if self.signed:
            return 2 ** (self.total_bits - 1) - 1
        return 2 ** self.total_bits - 1

    @property
    def min_code(self) -> int:
        """Smallest representable integer code."""
        if self.signed:
            return -(2 ** (self.total_bits - 1))
        return 0

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.max_code * self.resolution

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.min_code * self.resolution

    # ------------------------------------------------------------------ #
    # Quantization
    # ------------------------------------------------------------------ #
    def _round_codes(self, scaled: np.ndarray) -> np.ndarray:
        if self.rounding == "nearest":
            # round-half-away-from-zero, matching typical hardware rounding
            codes = np.floor(np.abs(scaled) + 0.5) * np.sign(scaled)
        elif self.rounding == "floor":
            codes = np.floor(scaled)
        elif self.rounding == "ceil":
            codes = np.ceil(scaled)
        else:  # truncate: toward zero
            codes = np.trunc(scaled)
        return codes

    def to_code(self, values: ArrayLike) -> np.ndarray:
        """Map real values to integer codes (the bits the hardware stores)."""
        arr = np.asarray(values, dtype=float)
        scaled = arr * (2.0 ** self.fraction_bits)
        codes = self._round_codes(scaled)
        if self.saturate:
            codes = np.clip(codes, self.min_code, self.max_code)
        else:
            if np.any(codes > self.max_code) or np.any(codes < self.min_code):
                raise OverflowError(
                    f"value out of range for format {self.describe()}"
                )
        out = codes.astype(np.int64)
        if out.shape == ():
            return out[()]
        return out

    def from_code(self, codes: ArrayLike) -> np.ndarray:
        """Map integer codes back to real values."""
        arr = np.asarray(codes, dtype=np.int64)
        values = arr.astype(float) * self.resolution
        if values.shape == ():
            return values[()]
        return values

    def quantize(self, values: ArrayLike) -> np.ndarray:
        """Round real values onto the representable grid (real-valued output)."""
        return self.from_code(self.to_code(values))

    def quantization_error(self, values: ArrayLike) -> np.ndarray:
        """Signed quantization error ``quantize(x) - x``."""
        arr = np.asarray(values, dtype=float)
        return self.quantize(arr) - arr

    def representable(self, value: float, tol: float = 1e-12) -> bool:
        """Whether ``value`` lies exactly on this format's grid and in range."""
        if value > self.max_value + tol or value < self.min_value - tol:
            return False
        scaled = value * (2.0 ** self.fraction_bits)
        return abs(scaled - round(scaled)) <= tol

    # ------------------------------------------------------------------ #
    # Derived formats (for hardware sizing)
    # ------------------------------------------------------------------ #
    def widen(self, extra_integer_bits: int = 0, extra_fraction_bits: int = 0) -> "FixedPointFormat":
        """Return a wider format covering at least the same range/precision."""
        return FixedPointFormat(
            integer_bits=self.integer_bits + extra_integer_bits,
            fraction_bits=self.fraction_bits + extra_fraction_bits,
            signed=self.signed,
            rounding=self.rounding,
            saturate=self.saturate,
        )

    def product_format(self, other: "FixedPointFormat") -> "FixedPointFormat":
        """Format of the full-precision product of two fixed-point numbers.

        This is what the hardware multiplier output bus must carry before any
        truncation: fraction bits add, and the integer field grows so the
        extreme product still fits.
        """
        signed = self.signed or other.signed
        frac = self.fraction_bits + other.fraction_bits
        # Worst-case magnitude of the product in integer-code space.
        max_mag = max(
            abs(self.max_code * other.max_code),
            abs(self.min_code * other.min_code),
            abs(self.max_code * other.min_code),
            abs(self.min_code * other.max_code),
        )
        total = max(1, int(math.ceil(math.log2(max_mag + 1)))) + (1 if signed else 0)
        return FixedPointFormat(
            integer_bits=total - frac - (1 if signed else 0),
            fraction_bits=frac,
            signed=signed,
        )

    def accumulate_format(self, n_terms: int) -> "FixedPointFormat":
        """Format wide enough to sum ``n_terms`` values of this format."""
        if n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        growth = int(math.ceil(math.log2(n_terms))) if n_terms > 1 else 0
        return self.widen(extra_integer_bits=growth)

    def describe(self) -> str:
        """Short human-readable description, e.g. ``sQ1.3 (5b)``."""
        prefix = "s" if self.signed else "u"
        return f"{prefix}Q{self.integer_bits}.{self.fraction_bits} ({self.total_bits}b)"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.describe()


def unsigned_input_format(bits: int) -> FixedPointFormat:
    """Format used for input features normalised to ``[0, 1]``.

    The paper normalises inputs to ``[0, 1]`` and feeds them at low precision;
    an unsigned purely-fractional format with ``bits`` fraction bits covers
    ``[0, 1 - 2**-bits]`` which is the conventional choice for bespoke printed
    classifiers.
    """
    if bits < 1:
        raise ValueError("input format needs at least 1 bit")
    return FixedPointFormat(integer_bits=0, fraction_bits=bits, signed=False)


def signed_coefficient_format(bits: int, integer_bits: int = 1) -> FixedPointFormat:
    """Signed format for SVM/MLP coefficients with ``bits`` total bits."""
    if bits < 2:
        raise ValueError("signed coefficient format needs at least 2 bits")
    fraction = bits - 1 - integer_bits
    return FixedPointFormat(integer_bits=integer_bits, fraction_bits=fraction, signed=True)


def fit_format(
    values: ArrayLike,
    total_bits: int,
    signed: bool = True,
    rounding: str = "nearest",
) -> FixedPointFormat:
    """Choose the binary-point position that best covers ``values``.

    Given a total bit budget, place the binary point so the largest magnitude
    value is representable without saturation while maximising fractional
    resolution.  This mirrors the per-tensor post-training quantization used
    for bespoke classifiers.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot fit a format to an empty array")
    max_abs = float(np.max(np.abs(arr)))
    sign_bits = 1 if signed else 0
    if max_abs == 0.0:
        integer_bits = 0
    else:
        # Smallest integer field such that max_abs fits: need
        # max_abs <= (2**(total-sign) - 1) * 2**-frac  with frac = total - sign - int.
        integer_bits = int(math.floor(math.log2(max_abs))) + 1
        # Guard against boundary cases where rounding up the magnitude would
        # saturate (e.g. max_abs exactly a power of two with nearest rounding).
        while True:
            frac = total_bits - sign_bits - integer_bits
            fmt = FixedPointFormat(
                integer_bits=integer_bits,
                fraction_bits=frac,
                signed=signed,
                rounding=rounding,
            )
            if max_abs <= fmt.max_value + 0.5 * fmt.resolution:
                break
            integer_bits += 1
    fraction_bits = total_bits - sign_bits - integer_bits
    return FixedPointFormat(
        integer_bits=integer_bits,
        fraction_bits=fraction_bits,
        signed=signed,
        rounding=rounding,
    )


def quantize_array(values: ArrayLike, fmt: FixedPointFormat) -> np.ndarray:
    """Quantize an array onto ``fmt``'s grid (convenience wrapper)."""
    return fmt.quantize(values)


def dequantize_array(codes: ArrayLike, fmt: FixedPointFormat) -> np.ndarray:
    """Convert integer codes back to real values (convenience wrapper)."""
    return fmt.from_code(codes)


def required_bits_for_integer(value: int, signed: bool = True) -> int:
    """Minimum number of bits needed to store ``value`` as an integer code."""
    value = int(value)
    if not signed:
        if value < 0:
            raise ValueError("unsigned format cannot store negative values")
        return max(1, value.bit_length())
    if value >= 0:
        return value.bit_length() + 1
    return (-value - 1).bit_length() + 1
