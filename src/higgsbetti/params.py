"""Discrete parameters: genus, degrees, Toledo invariant, index sets.

A parameter point is a genus g >= 2 and a pair of degrees (d1, d2) for
the rank-1 and rank-2 summands.  Derived invariants:

    tau       = (2/3)(2 d1 - d2)          (Toledo invariant, |tau| <= 2g-2)
    e         = d2 - 2 d1 + 4g - 4        (degree of the twisted pairs bundle)
    sigma     = 2g - 2 + (d2 - 2 d1)/3    (pairs stability parameter)
    sigma_min = 2g - 2 - d1 + d2/2 + 1/4  (parameter just above the bottom wall)

A point stores (g, d1, d2) alone and derives each invariant when it is
read, so a copy made by ``_replace`` or ``dataclasses.replace`` is always
consistent; tau, sigma, sigma_min are exact rationals.  A stratum index l
is an ``int``, except the A kind's l = d2/2, which is a ``Fraction``; a
bound l_max may be either, and ``floor`` gives the integer indices up to
it.  The boundary comparisons (e.g. |tau| = 4(g-1)/3 for Kirwan
surjectivity) are decided exactly.
"""

from __future__ import annotations

from math import floor
from typing import TYPE_CHECKING, NamedTuple

from .errors import ParameterError, RangeViolationError
from .records import dataclass_compatible

if TYPE_CHECKING:
    from fractions import Fraction

# largest genus accepted from outside input (CLI arguments, provider files)
MAX_GENUS = 128
# largest truncation order accepted from the CLI, about twice the default
# order 8g+24 at MAX_GENUS (1048)
MAX_ORDER = 2048


def _rational(num: int, den: int) -> Fraction:
    """num/den as an exact ``Fraction``.  Only what returns or prints a
    rational imports ``fractions`` (and, through it, ``decimal``): every
    comparison a ``compute`` makes is decided on integers."""
    from fractions import Fraction

    return Fraction(num, den)


def pairs_sigma(g: int, e: int) -> Fraction:
    """The pairs stability parameter sigma = (e+2g-2)/3 of (g, e)."""
    return _rational(e + 2 * g - 2, 3)


@dataclass_compatible
class ModuliParams(NamedTuple):
    """(g, d1, d2), immutable; the invariants are derived when read."""

    g: int
    d1: int
    d2: int

    @property
    def tau(self) -> Fraction:
        return _rational(2 * (2 * self.d1 - self.d2), 3)

    @property
    def e(self) -> int:
        return self.d2 - 2 * self.d1 + 4 * self.g - 4

    @property
    def sigma(self) -> Fraction:
        return pairs_sigma(self.g, self.e)

    @property
    def sigma_min(self) -> Fraction:
        """2g-2 - d1 + d2/2 + 1/4, which is e/2 + 1/4."""
        return _rational(2 * self.e + 1, 4)

    @property
    def mod3_class(self) -> int:
        return (self.d1 + self.d2) % 3

    @property
    def valid(self) -> bool:
        """|tau| <= 2g-2, decided on integers."""
        return abs(4 * self.d1 - 2 * self.d2) <= 3 * (2 * self.g - 2)

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
        """The point and its invariants, with the rationals as strings."""
        return {**self._asdict(), "tau": str(self.tau), "e": self.e,
                "sigma": str(self.sigma), "sigma_min": str(self.sigma_min),
                "mod3_class": self.mod3_class, "valid": self.valid}


def make_params(g: int, d1: int, d2: int) -> ModuliParams:
    """The point (g, d1, d2) of a genus g >= 2; out-of-bound tau flags
    (``valid``), not rejects."""
    if g < 2:
        raise ParameterError("genus must be at least 2")
    return ModuliParams(g, d1, d2)


class KindRange(NamedTuple):
    """lower < l < upper, or l <= upper when ``upper_closed``; no upper end
    when ``upper`` is None."""

    lower: Fraction
    upper: int | None
    upper_closed: bool


def _kind_ends(p: ModuliParams, kind: str) -> tuple[int, int, int | None, bool]:
    """The ends of a kind's index range: the open lower end num/den, the
    upper end (None when there is none) and whether it is included."""
    g, d1, d2 = p.g, p.d1, p.d2
    if kind == "B1":
        return d2, 2, d1, False
    if kind == "B3":
        return d1, 1, None, False
    if kind == "C1":
        return d1 + d2, 3, d2 - d1 + 2 * g - 2, True
    if kind == "C2":
        return 2 * d2 - d1, 3, d1, False
    if kind == "C3":
        return d1, 1, d1 + 2 * g - 2, True
    raise ParameterError(f"stratum kind {kind!r} has no index range")


def kind_range(p: ModuliParams, kind: str) -> KindRange:
    """The index range of the stratum kind named ``kind``: B1, B3, C1, C2 or
    C3; A (l = d2/2) and B2 (l = d1, when d1 > d2/2) are single points."""
    num, den, upper, closed = _kind_ends(p, kind)
    return KindRange(_rational(num, den), upper, closed)


def kind_indices(p: ModuliParams, kind: str, top: int | None = None) -> range:
    """The integer indices l <= top of the stratum kind named ``kind``: the
    integers of ``kind_range``, and for B2 the point l = d1 when d1 exceeds
    d2/2 (the middle line-splitting).  Only B3 needs a top."""
    if kind == "B2":
        lo, hi = p.d1, p.d1 + (2 * p.d1 > p.d2)
    else:
        num, den, upper, closed = _kind_ends(p, kind)
        lo = num // den + 1  # the first integer above the open lower end
        hi = top + 1 if upper is None else upper + closed
    return range(lo, hi if top is None else min(hi, top + 1))


C1_EXPONENT_NOTE = (
    "symmetric-product exponent taken as d2-l-d1+2g-2, the degree of the section "
    "bundle in the C1 construction; the printed table row carries l-d1+2g-2, "
    "inconsistent with every other display")


def sym_exponent(p: ModuliParams, kind: str, l: int) -> int:
    """The exponent m of S^m X in the critical set of kind C1 (see
    C1_EXPONENT_NOTE), C2 or C3 at index l; an m < 0 is a range violation."""
    if kind == "C1":
        m = p.d2 - l - p.d1
    elif kind == "C2":
        m = l - p.d1
    elif kind == "C3":
        m = p.d1 - l
    else:
        raise ParameterError(f"stratum kind {kind!r} has no symmetric-product exponent")
    m += 2 * p.g - 2
    if m < 0:
        raise RangeViolationError(f"negative symmetric-product exponent {m} for {kind}@{l}")
    return m


def h01_s_star_q(p: ModuliParams, l: int) -> int:
    """h^{0,1}(S*Q) = g-1+2l-d2, as deg(S*Q) = d2-2l < 0 makes h^0 vanish;
    twice it is the Morse shift of the C1 critical set at index l."""
    return p.g - 1 + 2 * l - p.d2


def canonicalize(p: ModuliParams) -> tuple[ModuliParams, list[dict]]:
    """Apply duality so tau >= 0, recording the transform.

    Tensor shifts (available via ModuliParams.tensor_shift) change
    (d1 + d2) mod 3 by 0, so a class-2 point with tau > 0 stays class 2;
    class-2 points with tau < 0 land on class 1 via the duality.
    """
    if 2 * p.d1 >= p.d2:  # tau >= 0
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
        # tau = 2c/3 is printed only when short: str() refuses an int of
        # more than 4300 digits, and a long one would fill the message
        c = 2 * p.d1 - p.d2
        tau = f"tau = {p.tau}" if c.bit_length() <= 64 else "|tau| > 10^19,"
        raise ParameterError(
            f"invalid parameters: {tau} outside [-(2g-2), 2g-2] = "
            f"[{-(2 * p.g - 2)}, {2 * p.g - 2}]"
        )


def delta_set(p: ModuliParams, l_max: int | Fraction) -> list[int | Fraction]:
    """The ordered index set {d2/2} union {integers l > (2 d2 - d1)/3}, up to l_max."""
    _require_valid(p)
    # the integers above the lower end of the C2 range, up to l_max
    members = set(range(floor(kind_range(p, "C2").lower) + 1, floor(l_max) + 1))
    if p.d2 <= 2 * l_max:
        members.add(_rational(p.d2, 2))
    return sorted(members)


def region_of(p: ModuliParams, k: int | Fraction) -> str:
    """Classify k into region I, II, III, or "none" below all regions."""
    _require_valid(p)
    d1 = p.d1
    c1, c2 = kind_range(p, "C1"), kind_range(p, "C2")
    # membership in delta_set(p, k), decided without building it
    if 2 * k != p.d2 and not (k == floor(k) and k > c2.lower):
        raise ParameterError(f"l = {k} is not in the index set")
    if c1.lower < k <= c1.upper:
        return "I"
    if (c2.lower < k <= c1.lower) or (c1.upper < k <= d1):
        return "II"
    if k > max(d1, c1.upper):
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


def kirwan_su_surjective(g: int, tau: int | Fraction) -> bool:
    """Fixed-determinant Kirwan surjectivity: |tau| > 4(g-1)/3, exactly
    for an int or ``Fraction`` tau."""
    return 3 * abs(tau) > 4 * (g - 1)


def torelli_trivial(g: int, tau: int | Fraction) -> bool:
    """Torelli group acts trivially iff |tau| >= 4(g-1)/3 (int or
    ``Fraction`` tau, exactly)."""
    return 3 * abs(tau) >= 4 * (g - 1)


def gamma3_trivial(g: int, tau: int | Fraction) -> bool:
    """3-torsion group acts trivially iff |tau| > 4(g-1)/3."""
    return kirwan_su_surjective(g, tau)
