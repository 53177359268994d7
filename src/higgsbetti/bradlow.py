"""The stable-pairs ingredient and its provider contract.

Two series about rank-2 Bradlow pairs on the twisted bundle of degree
e = d2 - 2 d1 + 4g - 4 enter every assembly:

    pairs_equivariant   gauge-equivariant series of the sigma-semistable
                        pairs space, at sigma = (e+2g-2)/3
    moduli_min          series of the pairs moduli space at the parameter
                        just above the bottom wall

Their absolute values live in the stable-pairs literature.  A provider
returns those it holds (``BradlowProvider.lookup``); their exact
difference is the wall-crossing sum implemented here, through which the
assembly derives a side the provider does not hold, and which lets
relative-mode computations eliminate one unknown.  The difference is a
sum over the integer walls j strictly between e/2 and sigma of

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
(``RationalExpr.expand``): one product sum and one division, once per
(g, e, order) (a bounded cache).  The walls, the maximal provider's
|tau| = 2g-2 and a provider file's sigma are decided on integers; a
``Fraction`` is formed only to print one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache

from .errors import ParameterError, ProviderFileError, quoted, shown
from .ingredients import (
    bg_rank1,
    jacobian_block,
    sym_factor,
)
from .params import (MAX_GENUS, MAX_ORDER, ModuliParams, _rational, _require_valid,
                     pairs_sigma)
from .series import (
    TruncatedSeries,
    parse_integer,
)


@lru_cache(maxsize=256)
def ww_from_invariants(g: int, e: int, order: int) -> TruncatedSeries:
    """pairs_equivariant - moduli_min, the wall-crossing sum over the walls
    of the module docstring; it depends on (g, e) alone, which fix sigma.
    Each (g, e, order) is summed once: every point of one (g, e), its dual
    and its tensor shifts share the sum.  The walls are found on integers,
    as 3 sigma = e + 2g - 2."""
    terms = []
    j = e // 2 + 1
    while 3 * j < e + 2 * g - 2:  # j < sigma
        sym = sym_factor(e - j, g, order)
        terms += [(1, 2 * (g - 1 + 2 * j - e), (sym,)), (-1, 2 * (e - j), (sym,))]
        j += 1
    s, rem = divmod(e + 2 * g - 2, 3)
    if not rem:  # sigma = s is a wall
        if 2 * s > e:
            terms.append((1, 2 * (g - 1 + 2 * s - e), (sym_factor(e - s, g, order),)))
        elif 2 * s == e:
            terms.append((1, e, (sym_factor(e // 2, g, order),)))
    return jacobian_block(g, 1, 2).expand(order, terms)


def ww_difference(p: ModuliParams, order: int) -> TruncatedSeries:
    """pairs_equivariant - moduli_min at a valid degree pair."""
    _require_valid(p)
    return ww_from_invariants(p.g, p.e, order)


def maximal_pairs_equivariant(g: int, order: int) -> TruncatedSeries:
    """Equivariant pairs series at the maximal Toledo invariant,
    where e = sigma = g-1:  P(J) (P(CP^{2g-3}) + t^{4g-4}/(1-t^2)), which
    is P(J)/(1-t^2), since P(CP^n) + t^{2n+2}/(1-t^2) = 1/(1-t^2)."""
    return bg_rank1(g, order)


def maximal_moduli_min(g: int, order: int) -> TruncatedSeries:
    """Bottom-chamber moduli series pinned by the maximal case:
    pairs_equivariant minus the wall-crossing difference."""
    # the maximal point has e = sigma = g-1
    return maximal_pairs_equivariant(g, order) - ww_from_invariants(g, g - 1, order)


class BradlowProvider(ABC):
    """Contract supplying the absolute pairs series a provider holds.

    ``lookup(g, e, order)`` returns (pairs_equivariant, moduli_min) at
    sigma = (e+2g-2)/3, which (g, e) fix, truncated at order; each is None
    when the provider does not hold it.  The assembly derives a missing
    side from the other through the wall-crossing difference, and keeps
    its unknown in relative mode when neither is held.
    """

    @abstractmethod
    def lookup(self, g: int, e: int, order: int) -> tuple[
            TruncatedSeries | None, TruncatedSeries | None]: ...


class MaximalCaseProvider(BradlowProvider):
    """The pairs series at the maximal Toledo invariant, e = sigma = g-1."""

    def lookup(self, g, e, order):
        return (maximal_pairs_equivariant(g, order) if e == g - 1 else None), None


class FileBackedProvider(BradlowProvider):
    """Answers exactly the (g, e) records present in a file, each with the
    series it carries: ``records`` are (g, e, pairs_equivariant,
    moduli_min), as ``_parse_record`` returns them.  Records carrying both
    are validated against the wall-crossing difference at load time.
    """

    def __init__(self, records):
        self._records: dict[tuple[int, int], tuple] = {}
        for g, e, pairs, min_moduli in records:
            if (g, e) in self._records:
                raise ProviderFileError(f"two records for (g, e) = ({g}, {e})")
            self._records[g, e] = pairs, min_moduli

    def lookup(self, g, e, order):
        held = self._records.get((g, e), (None, None))
        # the series of a record share its order
        top = min((s.order for s in held if s is not None), default=order)
        if order > top:
            raise ProviderFileError(f"provider record holds order {top}, need {order}")
        return tuple(None if s is None else s.truncated(order) for s in held)


def _parse_record(data: dict) -> tuple:
    """One record of a provider file, checked, as (g, e, pairs_equivariant,
    moduli_min); a series the record does not carry is None."""
    def _series(key: str) -> TruncatedSeries | None:
        raw = data.get(key)
        if raw is None:
            return None
        if not isinstance(raw, list):
            raise TypeError(f"{key} must be a list of coefficients")
        # the length first, so that a list of the wrong length is refused
        # before any of its coefficients is converted
        if len(raw) != order + 1:
            raise ValueError(f"{key} length does not match order {order}")
        return TruncatedSeries(tuple([parse_integer(c, f"{key} coefficient") for c in raw]))

    # the checks stay outside the ``try``s: a ProviderFileError is a
    # ValueError, which they would report as malformed
    malformed = (KeyError, TypeError, ValueError, ZeroDivisionError)
    try:
        g = parse_integer(data["g"], "g")
        e = parse_integer(data["e"], "e")
        num = parse_integer(data["sigma"]["num"], "sigma num")
        den = parse_integer(data["sigma"]["den"], "sigma den")
        if not den:
            _rational(num, den)  # raises the ZeroDivisionError of Fraction(num, 0)
        order = parse_integer(data["order"], "order")
    except malformed as exc:
        raise ProviderFileError(f"malformed provider record: {exc}") from exc
    # the cap keeps the load-time wall-crossing check (about g^3.3) short
    if not 2 <= g <= MAX_GENUS:
        raise ProviderFileError(
            f"provider record has genus {g}; it must be in 2..{MAX_GENUS}")
    if not g - 1 <= e <= 7 * g - 7:
        raise ProviderFileError(
            f"provider record has e = {e} outside {g - 1}..{7 * g - 7}, "
            f"the range |tau| <= 2g-2 allows at g = {g}")
    if 3 * num != (e + 2 * g - 2) * den:  # num/den != (e+2g-2)/3, on integers
        raise ProviderFileError(
            f"provider record has sigma = {_rational(num, den)}; (e + 2g - 2)/3 = "
            f"{pairs_sigma(g, e)} at (g, e) = ({g}, {e})")
    if order < 0:
        raise ProviderFileError(f"provider record has negative order {order}")
    if order > MAX_ORDER:
        raise ProviderFileError(
            f"provider record has order {order}, above the largest supported, "
            f"{MAX_ORDER}")
    # the series are read once the order is known to be in budget
    try:
        pairs = _series("pairs_equivariant")
        min_moduli = _series("moduli_min")
    except malformed as exc:
        raise ProviderFileError(f"malformed provider record: {exc}") from exc
    if pairs is None and min_moduli is None:
        raise ProviderFileError("record carries neither series")
    if pairs is not None and min_moduli is not None:
        expected = ww_from_invariants(g, e, order)
        delta = (pairs - min_moduli) - expected
        for k in range(order + 1):
            if delta.coeffs[k] != 0:
                raise ProviderFileError(f"difference mismatch at degree {k}")
    return g, e, pairs, min_moduli


def provider_from_file(path) -> FileBackedProvider:
    """Load a provider file (a single record object or a list of them)."""
    import json  # the CLI's compute imports this module, and only file: reads JSON

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, not JSON, or an integer past the digit limit;
        # a long path is named once, in part, as an OSError's text repeats it
        name, reason = shown(str(path)), exc
        if name != str(path) and isinstance(exc, OSError) and exc.strerror:
            reason = exc.strerror
        raise ProviderFileError(f"cannot read provider file {name}: {reason}") from exc
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


def provider_for_spec(spec: str, p: ModuliParams) -> BradlowProvider | None:
    """Resolve a provider description, relative | maximal | file:PATH, for
    the point p: ``relative`` is None, and ``maximal`` holds only at
    |tau| = 2g-2."""
    if spec == "relative":
        return None
    if spec == "maximal":
        if abs(4 * p.d1 - 2 * p.d2) != 3 * (2 * p.g - 2):  # |tau| != 2g-2
            raise ParameterError(
                f"provider 'maximal' is valid only at |tau| = 2g-2 = {2 * p.g - 2}, "
                f"got tau = {p.tau}")
        return MaximalCaseProvider()
    if spec.startswith("file:"):
        return provider_from_file(spec[5:])
    raise ParameterError(f"unknown provider {quoted(spec)}")
