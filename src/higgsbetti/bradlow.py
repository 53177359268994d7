"""The stable-pairs ingredient and its provider contract.

Two series about rank-2 Bradlow pairs on the twisted bundle of degree
e = d2 - 2 d1 + 4g - 4 enter every assembly:

    pairs_equivariant(e, sigma, g)  gauge-equivariant series of the
                                    sigma-semistable pairs space
    moduli_min(e, g)                series of the pairs moduli space at
                                    the parameter just above the bottom wall

Their absolute values live in the stable-pairs literature and are
supplied through a provider; their exact difference is the wall-crossing
sum implemented here, which lets relative-mode computations eliminate one
unknown.  The difference is a sum over the integer walls j strictly
between e/2 and sigma of

    (t^{2(g-1+2j-e)} - t^{2(e-j)}) P(J) P(S^{e-j} X) / (1-t^2)

plus a top-wall term when sigma is itself an integer: for sigma > e/2 it
is t^{2(g-1+2 sigma-e)} P(J) P(S^{e-sigma} X)/(1-t^2), and in the
degenerate case sigma = e/2 (Toledo invariant zero) it is
t^e P(J) P(S^{e/2} X)/(1-t^2), matching the even-degree boundary term of
the A-stratum attachment.  Since sigma - e/2 = tau/4, a negative Toledo
invariant puts sigma below e/2: there are no walls and the difference
is zero.

Every wall shares the factor P(J)/(1-t^2), so ``ww_from_invariants``
expands the walls' (t^a - t^b) P(S^{e-j} X) over that one block
(``RationalExpr.expand``): one product sum and one division.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError, ProviderFileError
from .ingredients import (
    bg_rank1,
    jacobian_block,
    jacobian_poincare,
    projective_poincare,
    sym_factor,
)
from .params import MAX_GENUS, MAX_ORDER, ModuliParams, _require_valid
from .records import dataclass_compatible
from .series import (
    TruncatedSeries,
    parse_integer,
)


def sigma_of(p: ModuliParams) -> Fraction:
    """The pairs stability parameter attached to (d1, d2)."""
    _require_valid(p)
    return p.sigma


def sigma_min_of(p: ModuliParams) -> Fraction:
    """Parameter in the lowest chamber; checks e/2 < sigma_min < floor(e/2)+1."""
    _require_valid(p)
    half = Fraction(p.e, 2)
    if not (half < p.sigma_min < half.__floor__() + 1):
        raise ParameterError(
            f"internal inconsistency: sigma_min = {p.sigma_min} is not "
            f"bracketed by ({half}, {half.__floor__() + 1})"
        )
    return p.sigma_min


def ww_from_invariants(g: int, e: int, sigma: Fraction, order: int) -> TruncatedSeries:
    """pairs_equivariant - moduli_min, the wall-crossing sum over the walls
    of the module docstring; it depends on (g, e, sigma) alone."""
    terms = []
    half = Fraction(e, 2)
    j = e // 2 + 1
    while j < sigma:
        sym = sym_factor(e - j, g, order)
        terms += [(1, 2 * (g - 1 + 2 * j - e), (sym,)), (-1, 2 * (e - j), (sym,))]
        j += 1
    if sigma.denominator == 1:
        s = int(sigma)
        if s > half:
            terms.append((1, 2 * (g - 1 + 2 * s - e), (sym_factor(e - s, g, order),)))
        elif s == half:
            terms.append((1, e, (sym_factor(e // 2, g, order),)))
    return jacobian_block(g, 1, 2).expand(order, terms)


def ww_difference(p: ModuliParams, order: int) -> TruncatedSeries:
    """pairs_equivariant - moduli_min at a valid degree pair."""
    _require_valid(p)
    return ww_from_invariants(p.g, p.e, p.sigma, order)


def maximal_pairs_equivariant(g: int, order: int) -> TruncatedSeries:
    """Equivariant pairs series at the maximal Toledo invariant,
    where e = sigma = g-1:  P(J) (P(CP^{2g-3}) + t^{4g-4}/(1-t^2)), which
    is P(J)/(1-t^2), since P(CP^n) + t^{2n+2}/(1-t^2) = 1/(1-t^2)."""
    return bg_rank1(g, order)


def maximal_first_term(g: int, order: int) -> TruncatedSeries:
    """The maximal-case telescoping sum

        P(J)^2 P(CP^{2g-3})/(1-t^2) + t^{4g-4} P(J)^2/(1-t^2)^2

    which collapses to P(J)^2/(1-t^2)^2 exactly."""
    jac = jacobian_poincare(g, order)
    first = (jac * jac * projective_poincare(2 * g - 3, order)).over_one_minus(2)
    second = (jac * jac).over_one_minus(2, 2).shifted(4 * g - 4)
    return first + second


def maximal_moduli_min(g: int, order: int) -> TruncatedSeries:
    """Bottom-chamber moduli series pinned by the maximal case:
    pairs_equivariant minus the wall-crossing difference."""
    # the maximal point has e = sigma = g-1
    return maximal_pairs_equivariant(g, order) - ww_from_invariants(
        g, g - 1, Fraction(g - 1), order)


class BradlowProvider(ABC):
    """Contract supplying the two absolute pairs series.

    Either query may answer None ("not known"), in which case assemblies
    fall back to relative mode or derive the missing side through the
    wall-crossing difference.
    """

    name = "abstract"

    @abstractmethod
    def pairs_equivariant(
        self, e: int, sigma: Fraction, g: int, order: int
    ) -> TruncatedSeries | None: ...

    @abstractmethod
    def moduli_min(self, e: int, g: int, order: int) -> TruncatedSeries | None: ...


class SymbolicProvider(BradlowProvider):
    """Answers nothing; keeps both series as explicit unknowns."""

    name = "relative"

    def pairs_equivariant(self, e, sigma, g, order):
        return None

    def moduli_min(self, e, g, order):
        return None


class MaximalCaseProvider(BradlowProvider):
    """Closed forms valid only at the maximal Toledo invariant
    (e = g-1, sigma = g-1)."""

    name = "maximal"

    def pairs_equivariant(self, e, sigma, g, order):
        if e == g - 1 and sigma == g - 1:
            return maximal_pairs_equivariant(g, order)
        return None

    def moduli_min(self, e, g, order):
        if e == g - 1:
            return maximal_moduli_min(g, order)
        return None


@dataclass_compatible
class _ProviderRecord(NamedTuple):
    g: int
    e: int
    sigma: Fraction
    pairs: TruncatedSeries | None
    min_moduli: TruncatedSeries | None


class FileBackedProvider(BradlowProvider):
    """Answers exactly the (g, e, sigma) tuples present in a file.

    A record is keyed by (g, e); its sigma is fixed by them.  When a
    record carries only one of the two series, the other is derived
    through the wall-crossing difference.  Records carrying both are
    validated against the difference at load time.
    """

    name = "file"

    def __init__(self, records: list[_ProviderRecord]):
        self._records: dict[tuple[int, int], _ProviderRecord] = {}
        for r in records:
            if (r.g, r.e) in self._records:
                raise ProviderFileError(
                    f"two records for (g, e) = ({r.g}, {r.e})")
            self._records[(r.g, r.e)] = r

    def pairs_equivariant(self, e, sigma, g, order):
        rec = self._records.get((g, e))
        if rec is None or rec.sigma != sigma:
            return None
        _require_order(rec, order)
        if rec.pairs is not None:
            return rec.pairs.truncated(order)
        return rec.min_moduli.truncated(order) + ww_from_invariants(g, e, rec.sigma, order)

    def moduli_min(self, e, g, order):
        rec = self._records.get((g, e))
        if rec is None:
            return None
        _require_order(rec, order)
        if rec.min_moduli is not None:
            return rec.min_moduli.truncated(order)
        return rec.pairs.truncated(order) - ww_from_invariants(g, e, rec.sigma, order)


def _require_order(rec: _ProviderRecord, order: int) -> None:
    held = (rec.pairs if rec.pairs is not None else rec.min_moduli).order
    if order > held:
        raise ProviderFileError(f"provider record holds order {held}, need {order}")


def _parse_record(data: dict) -> _ProviderRecord:
    def _series(key: str) -> TruncatedSeries | None:
        raw = data.get(key)
        if raw is None:
            return None
        if not isinstance(raw, list):
            raise TypeError(f"{key} must be a list of coefficients")
        coeffs = [parse_integer(c, f"{key} coefficient") for c in raw]
        if len(coeffs) != order + 1:
            raise ValueError(f"{key} length does not match order {order}")
        return TruncatedSeries(tuple(coeffs))

    try:
        g = parse_integer(data["g"], "g")
        e = parse_integer(data["e"], "e")
        sigma = Fraction(parse_integer(data["sigma"]["num"], "sigma num"),
                         parse_integer(data["sigma"]["den"], "sigma den"))
        order = parse_integer(data["order"], "order")
        pairs = _series("pairs_equivariant")
        min_moduli = _series("moduli_min")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ProviderFileError(f"malformed provider record: {exc}") from exc
    # the cap keeps the load-time wall-crossing check (about g^3.3) short
    if not 2 <= g <= MAX_GENUS:
        raise ProviderFileError(
            f"provider record has genus {g}; it must be in 2..{MAX_GENUS}")
    if not g - 1 <= e <= 7 * g - 7:
        raise ProviderFileError(
            f"provider record has e = {e} outside {g - 1}..{7 * g - 7}, "
            f"the range |tau| <= 2g-2 allows at g = {g}")
    if sigma != Fraction(e + 2 * g - 2, 3):
        raise ProviderFileError(
            f"provider record has sigma = {sigma}; (e + 2g - 2)/3 = "
            f"{Fraction(e + 2 * g - 2, 3)} at (g, e) = ({g}, {e})")
    if order < 0:
        raise ProviderFileError(f"provider record has negative order {order}")
    if order > MAX_ORDER:
        raise ProviderFileError(
            f"provider record has order {order}, above the largest supported, "
            f"{MAX_ORDER}")
    if pairs is None and min_moduli is None:
        raise ProviderFileError("record carries neither series")
    if pairs is not None and min_moduli is not None:
        expected = ww_from_invariants(g, e, sigma, order)
        delta = (pairs - min_moduli) - expected
        for k in range(order + 1):
            if delta.coeffs[k] != 0:
                raise ProviderFileError(f"difference mismatch at degree {k}")
    return _ProviderRecord(g=g, e=e, sigma=sigma, pairs=pairs, min_moduli=min_moduli)


def provider_from_file(path) -> FileBackedProvider:
    """Load a provider file (a single record object or a list of them)."""
    import json  # the CLI's compute imports this module, and only file: reads JSON

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, not JSON, or an integer past the digit limit
        raise ProviderFileError(f"cannot read provider file {path}: {exc}") from exc
    raw_records = payload if isinstance(payload, list) else [payload]
    return FileBackedProvider([_parse_record(r) for r in raw_records])


def maximal_provider_record(g: int, order: int) -> dict:
    """Maximal-case series in the provider-file schema (for export)."""
    return {
        "g": g,
        "e": g - 1,
        "sigma": {"num": g - 1, "den": 1},
        "order": order,
        "pairs_equivariant": [str(c) for c in maximal_pairs_equivariant(g, order).coeffs],
        "moduli_min": [str(c) for c in maximal_moduli_min(g, order).coeffs],
    }


def provider_for_spec(spec: str, p: ModuliParams) -> BradlowProvider:
    """Resolve a provider description, relative | maximal | file:PATH, for
    the point p: ``maximal`` holds only at |tau| = 2g-2."""
    if spec == "relative":
        return SymbolicProvider()
    if spec == "maximal":
        if abs(p.tau) != 2 * p.g - 2:
            raise ParameterError(
                f"provider 'maximal' is valid only at |tau| = 2g-2 = {2 * p.g - 2}, "
                f"got tau = {p.tau}")
        return MaximalCaseProvider()
    if spec.startswith("file:"):
        return provider_from_file(spec[5:])
    raise ParameterError(f"unknown provider {spec!r}")
