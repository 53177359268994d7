"""Discrete parameters: genus, degrees, Toledo invariant, index sets.

A parameter point is a genus g >= 2 and a pair of degrees (d1, d2) for
the rank-1 and rank-2 summands.  Derived invariants:

    tau       = (2/3)(2 d1 - d2)          (Toledo invariant, |tau| <= 2g-2)
    e         = d2 - 2 d1 + 4g - 4        (degree of the twisted pairs bundle)
    sigma     = 2g - 2 + (d2 - 2 d1)/3    (pairs stability parameter)
    sigma_min = 2g - 2 - d1 + d2/2 + 1/4  (parameter just above the bottom wall)

tau, sigma, sigma_min are exact rationals; the stratum index l lives in
half-integers and is stored as a doubled integer so parity never needs a
special case.  The boundary comparisons (e.g. |tau| = 4(g-1)/3 for Kirwan
surjectivity) are decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError

# largest genus accepted from outside input (CLI arguments, provider files)
MAX_GENUS = 128
# largest truncation order accepted from the CLI, about twice the default
# order 8g+24 at MAX_GENUS (1048)
MAX_ORDER = 2048


@dataclass(frozen=True, order=True)
class HalfInt:
    """A half-integer l represented exactly as doubled = 2l."""

    doubled: int

    @classmethod
    def from_int(cls, n: int) -> "HalfInt":
        return cls(2 * n)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "HalfInt":
        doubled = 2 * q
        if doubled.denominator != 1:
            raise ParameterError(f"{q} is not a half-integer")
        return cls(int(doubled))

    @property
    def value(self) -> Fraction:
        return Fraction(self.doubled, 2)

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise ParameterError(f"{self} is not an integer")
        return self.doubled // 2

    def shifted(self, k: int) -> "HalfInt":
        return HalfInt(self.doubled + 2 * k)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


@dataclass(frozen=True)
class ModuliParams:
    """(g, d1, d2) with derived invariants; immutable and exact."""

    g: int
    d1: int
    d2: int
    tau: Fraction
    e: int
    sigma: Fraction
    sigma_min: Fraction
    mod3_class: int
    valid: bool

    @property
    def is_coprime(self) -> bool:
        """d1 + d2 not divisible by 3 (the smooth-moduli classes)."""
        return self.mod3_class != 0

    def tensor_shift(self, k: int) -> "ModuliParams":
        """(d1, d2) -> (d1 + k, d2 + 2k); all invariants are unchanged."""
        return make_params(self.g, self.d1 + k, self.d2 + 2 * k)

    def dual(self) -> "ModuliParams":
        """(d1, d2) -> (-d1, -d2); negates the Toledo invariant."""
        return make_params(self.g, -self.d1, -self.d2)

    def describe(self) -> dict:
        return {
            "g": self.g,
            "d1": self.d1,
            "d2": self.d2,
            "tau": str(self.tau),
            "e": self.e,
            "sigma": str(self.sigma),
            "sigma_min": str(self.sigma_min),
            "mod3_class": self.mod3_class,
            "valid": self.valid,
        }


def make_params(g: int, d1: int, d2: int) -> ModuliParams:
    """Compute all derived invariants; out-of-bound tau flags, not rejects."""
    if g < 2:
        raise ParameterError("genus must be at least 2")
    c = 2 * d1 - d2
    e = 4 * g - 4 - c
    # sigma = 2g-2 + (d2 - 2 d1)/3 and sigma_min = 2g-2 - d1 + d2/2 + 1/4,
    # written through e (tests/test_params.py checks both forms)
    return ModuliParams(
        g=g, d1=d1, d2=d2, tau=Fraction(2 * c, 3), e=e,
        sigma=Fraction(e + 2 * g - 2, 3), sigma_min=Fraction(2 * e + 1, 4),
        mod3_class=(d1 + d2) % 3, valid=abs(2 * c) <= 3 * (2 * g - 2),
    )


class IndexBounds(NamedTuple):
    """Endpoints of the stratum-index ranges.  The fractional ones are
    open ends and are kept as floors: the first integer above x is
    floor(x) + 1."""

    half_d2: int  # floor(d2/2): A sits at d2/2, B1 starts above it
    c2_low: int  # floor((2 d2 - d1)/3): C2 starts above it
    c1_low: int  # floor((d1 + d2)/3): C1 starts above it
    c1_top: int  # d2 - d1 + 2g - 2: the last C1 index


def index_bounds(p: ModuliParams) -> IndexBounds:
    g, d1, d2 = p.g, p.d1, p.d2
    return IndexBounds(d2 // 2, (2 * d2 - d1) // 3, (d1 + d2) // 3, d2 - d1 + 2 * g - 2)


def canonicalize(p: ModuliParams) -> tuple[ModuliParams, list[dict]]:
    """Apply duality so tau >= 0, recording the transform.

    Tensor shifts (available via ModuliParams.tensor_shift) change
    (d1 + d2) mod 3 by 0, so a class-2 point with tau > 0 stays class 2;
    class-2 points with tau < 0 land on class 1 via the duality.
    """
    if p.tau >= 0:
        return p, []
    p = p.dual()
    return p, [{"op": "dualize", "d1": p.d1, "d2": p.d2}]


def valid_points(g: int):
    """Yield the valid points with tau >= 0 and 0 <= d1 <= 2g.

    With c = d2 - 2 d1, tau = -2c/3, so 0 <= tau <= 2g-2 is exactly
    -(3g-3) <= c <= 0.  Every valid point is a tensor shift of one of
    these or of the dual of one.
    """
    for d1 in range(0, 2 * g + 1):
        for d2 in range(2 * d1 - (3 * g - 3), 2 * d1 + 1):
            yield make_params(g, d1, d2)


def _require_valid(p: ModuliParams) -> None:
    if not p.valid:
        raise ParameterError(
            f"invalid parameters: tau = {p.tau} outside [-(2g-2), 2g-2] = "
            f"[{-(2 * p.g - 2)}, {2 * p.g - 2}]"
        )


def delta_set(p: ModuliParams, l_max: HalfInt) -> list[HalfInt]:
    """The ordered index set {d2/2} union {integers l > (2 d2 - d1)/3}, up to l_max."""
    _require_valid(p)
    members: set[HalfInt] = set()
    half = HalfInt(p.d2)
    if half <= l_max:
        members.add(half)
    l = index_bounds(p).c2_low + 1  # smallest integer above (2 d2 - d1)/3
    while Fraction(l) <= l_max.value:
        members.add(HalfInt.from_int(l))
        l += 1
    return sorted(members)


def region_of(p: ModuliParams, k: HalfInt) -> str:
    """Classify k into region I, II, III, or "none" below all regions."""
    _require_valid(p)
    if k not in delta_set(p, k):
        raise ParameterError(f"l = {k} is not in the index set")
    kv = k.value
    g, d1, d2 = p.g, p.d1, p.d2
    third_sum = Fraction(d1 + d2, 3)
    third_diff = Fraction(2 * d2 - d1, 3)
    c1_top = d2 - d1 + 2 * g - 2
    if third_sum < kv <= c1_top:
        return "I"
    if (third_diff < kv <= third_sum) or (c1_top < kv <= d1):
        return "II"
    if kv > max(d1, c1_top):
        return "III"
    return "none"


def s_tau(g: int, tau: int) -> dict[int, tuple[int, int]]:
    """Anomalous degrees {6g-6+tau/2+2l} -> (m1, m2) for the Torelli action.

    The index l runs over max{1, tau/2} <= l <= 2g-2-tau, with
    m1 = 2g-2-tau-l and m2 = 2g-2+tau/2-l.
    """
    if tau % 2 != 0:
        raise ParameterError("the Toledo invariant must be even here")
    if tau < 0:
        raise ParameterError("tau must be nonnegative")
    half = tau // 2
    out: dict[int, tuple[int, int]] = {}
    for l in range(max(1, half), 2 * g - 2 - tau + 1):
        degree = 6 * g - 6 + half + 2 * l
        out[degree] = (2 * g - 2 - tau - l, 2 * g - 2 + half - l)
    return out


def _as_fraction(tau) -> Fraction:
    return tau if isinstance(tau, Fraction) else Fraction(tau)


def kirwan_su_surjective(g: int, tau) -> bool:
    """Fixed-determinant Kirwan surjectivity: |tau| > 4(g-1)/3, exactly."""
    return abs(_as_fraction(tau)) > Fraction(4 * (g - 1), 3)


def torelli_trivial(g: int, tau) -> bool:
    """Torelli group acts trivially iff |tau| >= 4(g-1)/3."""
    return abs(_as_fraction(tau)) >= Fraction(4 * (g - 1), 3)


def gamma3_trivial(g: int, tau) -> bool:
    """3-torsion group acts trivially iff |tau| > 4(g-1)/3."""
    return kirwan_su_surjective(g, tau)
