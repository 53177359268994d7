"""Headline assemblies: closed forms and stratum-sum routes.

Each group admits two independent computations of the equivariant series
of the semistable locus:

  closed form      Bradlow pairs block plus a finite sum over the C1
                   range (products of symmetric-product series for the
                   non-fixed determinant group, cover polynomials for the
                   fixed-determinant group);

  stratum route    classifying-space total minus one labeled block per
                   critical stratum, with the semistable-bundle block and
                   the line-splitting tail canceling identically by the
                   Atiyah-Bott recursion.

Results default to relative mode: the two absolute pairs series enter as
explicit unknowns with series coefficients, linked by the exact
wall-crossing difference, so route equivalence is decidable without any
imported values.  Each assembly holds one of them (the pairs series in a
closed form, moduli_min in a route).  A provider can substitute absolute
values: ``_provided`` takes the series the provider holds and derives
the other side through the difference when that is the one needed.

A group is data, its row of ``_GROUPS``, read by one closed-form body
and one route body.  Every assembly is a sum of blocks.  A block is a
``RationalExpr``, the factor over the denominator that all strata of one
kind share, cached per genus and shape (``ingredients.jacobian_block``).
Fixing the determinant removes the line-gauge factor lambda =
P(J)/(1-t^2), the series of Jac x BU(1): the C1 terms and a route's
moduli_min lie over lambda^power (power 1 for u21, 0 for su21 and pu21),
a route's Atiyah-Bott block is 1/((1-t^2)^k (1-t^4)) with k = 2 + power,
and the row holds a route's boundary, C2 and B1-diff blocks.  The pairs
unknown lies over P(J)/(1-t^2) in every closed form.  A term is (label,
entries, block, order), and its entries (sign, shift, factors) are those
of ``series.shifted_product_sum``: one entry t^mu P(S^m1) P(S^m2) for C1
and the invariant covers, t^s P(S^m) for C2, B1-diff and the boundary
term, one Atiyah-Bott numerator, or a Gothen cover's two entries.
Nothing is multiplied when a term is added.  ``finish`` expands each
block once over the entries gathered under it (``RationalExpr.expand``:
one big-integer expression, unpacked once, and one division):
- the C2, B1-diff and boundary terms' entries, each as listed;
- for the su21 and pu21 C1 terms, one entry: their sum of products
  t^mu P(S^m1) P(S^m2), plus, for su21, the covers' monomials;
- a provider's value, one entry over its unknown's block.
A build computes only what belongs to its own point.  The C1 sum and
each C1 term's entries are formed once per exponent progression
(``_c1_table``, cached) and shared by all five builders, the dual point
and every tensor shift of the point; a build only labels them.  The u21
C1 sum over lambda is expanded once per progression and order
(``_c1_over_lambda``) and enters the series as a part of its own, and
the coefficient an unknown carries in relative mode is its block's
expansion, once per block and order (``_block_expansion``).  Expansion
is exact and linear, so summing parts expanded apart changes no
coefficient.
A relative build is made once per process: ``_store`` keeps its series,
as int64s, and its unknown, keyed by the builder, the canonical point
and the order, so a repeat or the dual point is served with no
arithmetic (2^17 coefficients at most, the oldest dropped first).  A
series with a coefficient beyond int64 is not kept.
The Atiyah-Bott block gathers nothing: its three terms are shown but not
summed.  ``atiyah_bott_numerators`` builds the semistable block as the
total minus the tail, so the three numerators sum to the zero polynomial
and their expansion would only add zero; what checks the cancellation
is the ``ab-cancellation`` suite, against an oracle of its own.
A build lists no term: it records each added term's label, block and
entries, and the C1 sum as one record, and ``AssemblyResult.terms``
makes the ``TermValue``s on first read and keeps them (``_Unlisted``),
so a reader that never reads a term (a sweep, text or CSV output, a
passing check) pays for none.  A term is expanded on its own only when
it is read (JSON ``terms``, residual provenance), in one expansion of
its own entries at the degree read, so provenance, which reads one low
coefficient of each term, cuts every factor there.
Every block is a unit series and a product of nonzero polynomials starts
at the sum of their lowest degrees, so the listing drops a term exactly
when none of its entries reaches the order (``_reaches``).  Such a term
is still summed in its block: it adds only multiples of t^(order+1),
which the expansion cuts.  The C1 sum ends where its shift passes the
order, so each C1 term it lists reaches the order.
"""

from __future__ import annotations

import struct
from _thread import allocate_lock
from functools import _CacheInfo, cached_property, lru_cache
from typing import NamedTuple

from .bradlow import BradlowProvider, ww_difference
from .errors import ParameterError
from .ingredients import (
    atiyah_bott_block,
    atiyah_bott_numerators,
    gothen_cover,
    jacobian_block,
    sym_factor,
)
from .params import (ModuliParams, _require_valid, canonicalize, h01_s_star_q,
                     kind_indices, sym_exponent)
from .records import Frozen, dataclass_compatible
from .series import (RationalExpr, TruncatedSeries, _layout, _trusted, resolve_order,
                     shifted_product_sum)

PAIRS = "pairs_equivariant"
MODULI_MIN = "moduli_min"


# the block of a term that is its own expansion
PLAIN = RationalExpr((1,))


@dataclass_compatible
class TermValue(Frozen):
    """One labeled summand of an assembly: the sum of its ``entries``
    (sign, shift, factors), as in ``shifted_product_sum``, times its
    block, truncated at order.  The entries are never multiplied out when
    the term is made.  An expansion (``series``, ``expanded``,
    ``coefficient``) is one ``RationalExpr.expand`` of the entries at the
    degree it is read, which cuts every factor there.  Terms compare by
    label and expansion."""

    _fields = ("label", "entries", "block", "order")

    def __init__(self, label: str, entries: tuple, block: RationalExpr, order: int):
        # no slots, as the cached ``series`` lives in the instance dict, so
        # the fields go straight into it, past Frozen's __setattr__
        fields = self.__dict__
        fields["label"], fields["entries"] = label, entries
        fields["block"], fields["order"] = block, order

    @cached_property
    def series(self) -> TruncatedSeries:
        return self.expanded(self.order)

    def expanded(self, order: int) -> TruncatedSeries:
        """The term truncated at order (at most its own order)."""
        if order > self.order:
            raise ParameterError(f"term holds order {self.order}, asked for {order}")
        return self.block.expand(order, self.entries)

    def coefficient(self, degree: int) -> int:
        return self.expanded(degree).coeffs[degree]

    def __eq__(self, other):
        if not isinstance(other, TermValue):
            return NotImplemented
        return (self.label, self.series) == (other.label, other.series)

    def __hash__(self):
        return hash((self.label, self.series))


class _Unlisted:
    """The terms of an assembly as its build recorded them, listed as
    ``TermValue``s on first read and kept.  A record is (label, block,
    entries, checked) for one term, dropped when ``checked`` and none of
    its entries reaches the order, or (name, indices, covers, cover,
    block) for a C1 sum, one term per cover, each reaching the order.  A
    result served from the store holds, in place of the records, a
    function that runs the build's body again and returns them.  A field
    made by ``terms_fields`` reads it as the tuple; it compares, prints,
    pickles and copies as that tuple."""

    __slots__ = ("records", "order", "terms")

    def __init__(self, records, order: int):
        self.records, self.order, self.terms = records, order, None

    def listed(self) -> tuple[TermValue, ...]:
        if self.terms is None:
            order, terms = self.order, []
            records = self.records() if callable(self.records) else self.records
            for record in records:
                if len(record) == 5:  # a C1 sum
                    name, indices, covers, cover, block = record
                    terms += [TermValue(f"{name}[l={l}]", entries if cover else entries[:1],
                                        block, order)
                              for l, entries in zip(indices, covers)]
                else:
                    label, block, entries, checked = record
                    if not checked or any(_reaches(e, order) for e in entries):
                        terms.append(TermValue(label, entries, block, order))
            self.terms = tuple(terms)
        return self.terms

    def __eq__(self, other):
        return self.listed() == _listed(other)

    def __repr__(self) -> str:
        return repr(self.listed())

    def __reduce__(self):
        return tuple, (self.listed(),)


def _listed(terms):
    return terms.listed() if type(terms) is _Unlisted else terms


def terms_fields(cls: type, *names: str) -> None:
    """Make each NamedTuple field of ``cls`` in ``names`` read as a tuple
    of terms, listing an ``_Unlisted`` it holds.  Iterating or indexing a
    value of ``cls`` gives the fields as held."""
    for index in map(cls._fields.index, names):
        setattr(cls, cls._fields[index],
                property(lambda self, i=index: _listed(self[i]),
                         doc="Terms, listed on first read."))


@dataclass_compatible
class AssemblyResult(NamedTuple):
    """Known series plus explicit unknown blocks a*pairs + b*moduli_min.

    The expanded terms always sum to the known series exactly; a build
    lists them when ``terms`` is first read.  The
    result is in relative mode while an unknown block remains, and in
    absolute mode when the unknown map is empty; its order is that of its
    series.  ``params`` is the point assembled; ``transforms`` records how
    it was reached from the point asked for (a dualization when that point
    has tau < 0).
    """

    group: str
    params: ModuliParams
    series: TruncatedSeries
    unknown: dict[str, TruncatedSeries]
    terms: tuple[TermValue, ...]
    transforms: tuple[dict, ...] = ()

    @property
    def order(self) -> int:
        return self.series.order

    @property
    def mode(self) -> str:
        return "relative" if self.unknown else "absolute"

    def to_json_dict(self) -> dict:
        def _coeffs(s: TruncatedSeries | None):
            return None if s is None else [str(c) for c in s.coeffs]

        doc = {
            "group": self.group,
            "g": self.params.g,
            "d1": self.params.d1,
            "d2": self.params.d2,
            "order": self.order,
            "mode": self.mode,
            "coefficients": _coeffs(self.series),
            "unknown_coefficients": {
                PAIRS: _coeffs(self.unknown.get(PAIRS)),
                MODULI_MIN: _coeffs(self.unknown.get(MODULI_MIN)),
            },
            "terms": [
                {"label": t.label, "coefficients": _coeffs(t.series)}
                for t in self.terms
            ],
        }
        if self.transforms:
            doc["transforms"] = list(self.transforms)
        return doc


terms_fields(AssemblyResult, "terms")


def _reaches(entry, order: int) -> bool:
    """Whether an entry (sign, shift, factors) has a nonzero coefficient
    at or below order: no factor is zero, and its shift plus the factors'
    lowest degrees is at most order."""
    _, low, factors = entry
    for f in factors:
        k = 0 if f[0] else next((k for k, c in enumerate(f) if c), None)
        if k is None:
            return False
        low += k
    return low <= order


def _provided(provider: BradlowProvider | None, p: ModuliParams, name: str,
              order: int) -> TruncatedSeries | None:
    """The value of the unknown ``name`` (PAIRS or MODULI_MIN) at p: the
    series the provider holds, or else the other side it holds through
    pairs_equivariant - moduli_min = ``ww_difference``; None when it holds
    neither (and when there is no provider)."""
    if provider is None:
        return None
    pairs, mm = provider.lookup(p.g, p.e, order)
    if name == PAIRS and pairs is None and mm is not None:
        return mm + ww_difference(p, order)
    if name == MODULI_MIN and mm is None and pairs is not None:
        return pairs - ww_difference(p, order)
    return pairs if name == PAIRS else mm


class _Builder:
    """Collects the terms of one assembly at a point with tau >= 0.

    ``add`` only records a term and gathers its entries under its block
    (``sum``); ``finish`` expands every block once, over all the entries
    gathered under it, and adds the cached ``parts``.  The
    ``records`` are plain data, listed as terms only when the result's
    ``terms`` are read (``_Unlisted``).
    """

    def __init__(self, group: str, p: ModuliParams, order: int,
                 transforms: list[dict]):
        self.group = group
        self.p = p
        self.order = order
        self.transforms = tuple(transforms)
        # the terms, as ``_Unlisted`` records
        self.records: list[tuple] = []
        # the summed entries of each block, keyed by the block's id
        self.sums: dict[int, tuple[RationalExpr, list]] = {}
        # the ``_c1_over_lambda`` keys of the cached u21 C1 sum, whose
        # expansion ``finish`` adds as it is
        self.parts: list[tuple] = []
        # the one unknown (name, block, label), set by the body: its
        # coefficient is the block's expansion
        self.unknown: tuple[str, RationalExpr, str] | None = None

    def add(self, label: str, block: RationalExpr, *entries,
            listed_only: bool = False) -> None:
        """Add (sum of the entries (sign, shift, factors)) * block, recorded
        as the term ``label``, which the listing drops when none of its
        entries reaches the order.  A term that is ``listed_only`` is
        listed, not summed: its group of terms sums to zero by
        construction."""
        self.records.append((label, block, entries, True))
        if not listed_only:
            self.sum(block, entries)

    def sum(self, block: RationalExpr, entries) -> None:
        """Gather entries under their block, to be expanded by ``finish``."""
        # grouped by the (cached) block object: hashing a block hashes its
        # whole numerator, and two equal blocks apart only cost one more
        # exact expansion
        group = self.sums.get(id(block))
        if group is None:
            self.sums[id(block)] = (block, list(entries))
        else:
            group[1].extend(entries)

    def finish(self, provider: BradlowProvider | None) -> AssemblyResult:
        p, order = self.p, self.order
        name, block, label = self.unknown
        value = _provided(provider, p, name, order)
        if value is not None:
            # the value over the unknown's block, summed with that block and
            # listed even when it is zero
            concrete = (1, 0, (value.coeffs,))
            self.records.append((label, block, (concrete,), False))
            self.sum(block, (concrete,))
        parts = [_c1_over_lambda(*key, order) for key in self.parts]
        parts += [expr.expand(order, entries) for expr, entries in self.sums.values()]
        known = parts[0] if parts else TruncatedSeries.zero(order)
        for part in parts[1:]:
            known = known + part
        return AssemblyResult(
            group=self.group,
            params=p,
            series=known,
            unknown={name: _block_expansion(block, order)} if value is None else {},
            terms=_Unlisted(self.records, order),
            transforms=self.transforms,
        )


# each group's row: its C1 label, whether a C1 term is a Gothen cover, the
# power of lambda, and the shapes (power, *denominators) of its route's
# boundary, C2 and B1-diff blocks for ``jacobian_block``
_GROUPS = {
    "u21": ("C1", False, 1, ((2, 2, 2),) * 3),  # each lambda^2
    # boundary P(J) and C2 P(J)/(1-t^2)^2, not lambda: ROADMAP item 2
    "su21": ("cover-sum", True, 0, ((1,), (1, 2, 2), (1, 2))),
    # the cover's 3-torsion invariant part P(S^m1) P(S^m2); no route
    "pu21": ("invariant-cover-sum", False, 0, None),
}


class _Store:
    """The series and unknown of each relative build, kept for the
    process and keyed by (builder name, g, d1, d2, order) of the
    canonical point.  A series is kept as one ``bytes`` of signed int64s,
    packed by the ``_layout(8, n)`` struct, and a series with a
    coefficient outside [-2^63, 2^63) is not kept: ``struct`` raises
    rather than wrap.  The unknown is kept as its (name, series), the
    ``_block_expansion`` object that every build at its block and order
    shares.  At most ``budget`` series coefficients are held, the oldest
    entries dropped first.  ``cache_info`` is that of an ``lru_cache``
    whose ``maxsize`` and ``currsize`` count coefficients."""

    def __init__(self, budget: int):
        self.budget, self.lock = budget, allocate_lock()
        self.cache_clear()

    def cache_clear(self) -> None:
        with self.lock:
            self.entries, self.held, self.hits, self.misses = {}, 0, 0, 0

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, self.budget, self.held)

    def get(self, key: tuple):
        """The series and the unknown (name, series) kept for key, or None."""
        with self.lock:
            entry = self.entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
        packed, unknown = entry
        return _trusted(_layout(8, len(packed) // 8)[0].unpack(packed)), unknown

    def keep(self, key: tuple, series: TruncatedSeries, unknown: tuple) -> None:
        n = len(series.coeffs)
        try:
            packed = _layout(8, n)[0].pack(*series.coeffs)
        except struct.error:  # a coefficient beyond int64
            return
        with self.lock:
            # too long for the budget, or kept by a concurrent build
            if n > self.budget or key in self.entries:
                return
            self.entries[key] = packed, unknown
            self.held += n
            while self.held > self.budget:
                self.held -= len(self.entries.pop(next(iter(self.entries)))[0]) // 8


# every relative build of the process: 2^17 coefficients, 1 MiB of int64s
_store = _Store(1 << 17)


def _built(group: str, body, p: ModuliParams, order: int, transforms=()) -> _Builder:
    """A builder at p and order that ``body`` has run on, not finished."""
    b = _Builder(group, p, order, transforms)
    body(b, _GROUPS[group])
    return b


def _assembly(group: str, body, name: str, doc: str):
    """The public builder ``name(p, provider=None, order=None)``, the one
    way into every assembly.  It refuses |tau| > 2g-2, where the moduli
    space is empty (Milnor-Wood), dualizes a point with tau < 0 to
    (-d1, -d2) through ``canonicalize`` (duality of Higgs bundles
    identifies the two moduli spaces, so every series depends on tau only
    up to sign), resolves the order, runs ``body`` on a fresh builder and
    ``group``'s row, and substitutes the provider.  A relative build (no
    provider) is served from ``_store`` when it holds the canonical point
    and order, and kept there after it is built; a served result lists
    its terms on first read by running ``body`` again, without
    ``finish``."""

    def build(p: ModuliParams, provider: BradlowProvider | None = None,
              order: int | None = None) -> AssemblyResult:
        _require_valid(p)
        point, transforms = canonicalize(p)
        order = resolve_order(p.g, order)
        if provider is None:
            key = (name, point.g, point.d1, point.d2, order)
            kept = _store.get(key)
            if kept is not None:
                return AssemblyResult(group, point, kept[0], dict([kept[1]]),
                                      _Unlisted(lambda: _built(group, body, point, order).records,
                                                order), tuple(transforms))
        result = _built(group, body, point, order, transforms).finish(provider)
        if provider is None:
            _store.keep(key, result.series, *result.unknown.items())
        return result

    build.__name__ = build.__qualname__ = name
    build.__doc__ = doc
    return build


@lru_cache(maxsize=256)
def _c1_table(g: int, first: tuple, n: int, size: int) -> tuple[tuple, tuple]:
    """The C1 sum that every builder carries, over its first n indices, as
    a pair: the entry of its numerator (coefficients 0..size-1 of
    sum t^s P(S^m1) P(S^m2)), and each index's ``gothen_cover`` entries,
    its product and its cover's monomial.

    The exponents form a progression: from one C1 index to the next the
    shift s = 2(g-1+2l-d2) grows by 4 and both m1 = d2-l-d1+2g-2 and
    m2 = d1-l+2g-2 fall by 1, so the key is the first index's (s, m1, m2)
    and the count n.  No exponent of the n is negative: at the top of the
    range, l = d2-d1+2g-2, m1 is 0 and m2 is 2d1-d2, which is at least 0
    at tau >= 0.  Every builder, the dual point and every tensor shift
    keep the progression, so they share one record.

    No cut at the order changes an exponent, so a key cut at the order
    is this key, the products are a build's ``sym_factor``s, and each
    cover's monomial v t^{s+m1+m2} is that of the uncut (m1, m2): at tau
    >= 0 an index with s <= order has m1, m2 < s, as l > (d1+d2)/3 gives
    s - m1 = 5l - 3d2 + d1 > 2 tau and s - m2 = 5l - 2d2 - d1 > tau/2."""
    s, m1, m2 = first
    covers = tuple(gothen_cover(m1 - i, m2 - i, g, size - 1, s + 4 * i)
                   for i in range(n))
    numerator = tuple(shifted_product_sum([product for product, _ in covers], size))
    return (1, 0, (numerator,)), covers


@lru_cache(maxsize=256)
def _c1_over_lambda(g: int, first: tuple, n: int, size: int,
                    order: int) -> TruncatedSeries:
    """The ``_c1_table`` sum of that key over lambda = P(J)/(1-t^2),
    truncated at order: the u21 C1 part of every build that shares the
    key and the order."""
    numerator, _ = _c1_table(g, first, n, size)
    return jacobian_block(g, 1, 2).expand(order, (numerator,))


@lru_cache(maxsize=64)
def _block_expansion(block: RationalExpr, order: int) -> TruncatedSeries:
    """A block expanded by itself at order: the coefficient its unknown
    carries in relative mode."""
    return block.expand(order)


def _add_c1_sum(b: _Builder, row) -> None:
    """One term t^s P(S^m1) P(S^m2), or a Gothen cover, over
    lambda^power per C1 index, recorded once for the whole sum as the
    name, indices, ``_c1_table`` covers and block that the listing labels.
    The shift s grows by 4 from one index to the next, so the sum ends at
    the first s past the order.  Every listed term reaches the order, its
    product's shift s being at most the order and every factor having
    constant term 1, so no term is checked with ``_reaches``.  The u21
    sum, over lambda, is one cached part of the series
    (``_c1_over_lambda``); over the plain block of su21 and pu21 the
    table's numerator, plus the covers' monomials, is summed with the
    block's other entries."""
    name, cover, power, _ = row
    p, order = b.p, b.order
    indices = kind_indices(p, "C1")
    if not indices:
        return
    l = indices.start
    first = (2 * h01_s_star_q(p, l), sym_exponent(p, "C1", l), sym_exponent(p, "C3", l))
    s, m1, m2 = first
    n = min(len(indices), (order - s) // 4 + 1)
    if n <= 0:
        return
    # every C1 term has the degree s + 2(m1 + m2), which is 10g-10
    key = (p.g, first, n, min(order, s + 2 * (m1 + m2)) + 1)
    numerator, covers = _c1_table(*key)
    block = jacobian_block(p.g, power, *[2] * power)
    b.records.append((name, indices, covers, cover, block))
    if power:  # u21, whose row has no covers
        b.parts.append(key)
    elif cover:
        b.sum(block, (numerator, *(monomial for _, monomial in covers)))
    else:
        b.sum(block, (numerator,))


def _closed_form(b: _Builder, row) -> None:
    # P(J)/(1-t^2) for every group, not lambda^power: ROADMAP item 2
    b.unknown = (PAIRS, jacobian_block(b.p.g, 1, 2), "pairs-block")
    _add_c1_sum(b, row)


def _c2_entry(b: _Builder, l: int) -> tuple:
    """The C2 route entry -t^{2m} P(S^m) at index l."""
    m = sym_exponent(b.p, "C2", l)
    return (-1, 2 * m, (sym_factor(m, b.p.g, b.order),))


def _stratum_route(b: _Builder, row) -> None:
    """The Atiyah-Bott block's three terms, which cancel identically, with
    2 + power line factors; moduli_min over lambda^power; the even-degree
    boundary term (the negated C2 entry at l = d2/2), the C2 sum over the
    C2 indices up to d2/2 and the B1-diff sum over the B1 indices below
    the first C1 index, each over its block of the row; the C1 sum."""
    power, shapes = row[2:]
    p, g, order = b.p, b.p.g, b.order
    total, semistable, tail = atiyah_bott_numerators(g, p.d2 % 2 == 1, 2 + power)
    block = atiyah_bott_block(g, 2 + power)
    b.add("classifying-total", block, (1, 0, (total,)), listed_only=True)
    b.add("semistable-bundle-block", block, (-1, 0, (semistable,)), listed_only=True)
    b.add("line-splitting-tail", block, (-1, 0, (tail,)), listed_only=True)
    b.unknown = (MODULI_MIN, jacobian_block(g, power, *[2] * power),
                 "bradlow-moduli-block")
    boundary, c2, b1_diff = (jacobian_block(g, *shape) for shape in shapes)
    if p.d2 % 2 == 0:
        _, shift, factors = _c2_entry(b, p.d2 // 2)
        b.add("even-degree-boundary", boundary, (1, shift, factors))
    for l in kind_indices(p, "C2", p.d2 // 2):
        b.add(f"C2[l={l}]", c2, _c2_entry(b, l))
    for l in kind_indices(p, "B1", kind_indices(p, "C1").start - 1):
        m = sym_exponent(p, "C1", l)  # the C1 exponent and shift, at a B1 index
        b.add(f"B1-diff[l={l}]", b1_diff,
              (1, 2 * h01_s_star_q(p, l), (sym_factor(m, g, order),)))
    _add_c1_sum(b, row)


u21_closed_form = _assembly("u21", _closed_form, "u21_closed_form", """\
Equivariant series of the semistable locus, closed form.

    Bradlow block (P(J)/(1-t^2)) * pairs_equivariant plus the C1 sum of
    t^mu P(J) P(S^m1) P(S^m2)/(1-t^2): at each C1 index l, mu is twice
    ``h01_s_star_q`` and m1, m2 are the C1 and C3 ``sym_exponent``s.
    """)

u21_stratum_route = _assembly("u21", _stratum_route, "u21_stratum_route", """\
Equivariant series via the per-stratum Morse-theoretic sum.

    Classifying-space total minus one labeled block per critical stratum.
    The semistable-bundle block and the line-splitting tail cancel the
    total identically (Atiyah-Bott); the rest is the Bradlow moduli block
    and three finite sums.  The even-d2 boundary term of the A-stratum is
    kept explicitly: for tau > 0 it cancels the top member of the C2 sum
    (the consolidation asserted by tests), while at tau = 0 that member
    does not exist and the term survives.
    """)

su21_closed_form = _assembly("su21", _closed_form, "su21_closed_form", """\
Fixed-determinant closed form: Bradlow block plus the cover sum.""")

su21_stratum_route = _assembly("su21", _stratum_route, "su21_stratum_route", """\
Fixed-determinant stratum sum, item for item as displayed.

    The bookkeeping of the A-item against the closed form's Bradlow block
    is not fully displayed in the source material, so this route is
    diagnostic: its residual against the closed form is reported with
    term provenance, never asserted to vanish.
    """)

pu21_poincare = _assembly("pu21", _closed_form, "pu21_poincare", """\
3-torsion invariant part: the fixed-determinant closed form with
    each cover polynomial replaced by the bare product of symmetric
    products (the Bradlow block carries a trivial action and is kept).""")


# every assembly, keyed by (group, route)
BUILDERS = {
    ("u21", "closed"): u21_closed_form,
    ("u21", "stratum"): u21_stratum_route,
    ("su21", "closed"): su21_closed_form,
    ("su21", "stratum"): su21_stratum_route,
    ("pu21", "closed"): pu21_poincare,
}
