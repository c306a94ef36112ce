"""Finite truncations of the bounded irreducible *-representations.

The representations of the even/odd families (labels r = 1..l) and the
faithful representation of the ambient algebra act on l^2(N) by
weighted shifts of one form (WeightForm): the row of a shift by
`offset` that reads column n has the weight

    w_n = q^{h x_n / 2} prod_{s in S} (1 - q^{2s + x_n})^{1/2},

where q^{x_n} is a's eigenvalue on e_n: x_n = 2(ln + r) for label r and
x_n = 2(n + 1) in the ambient representation (l = r = 1, a = z1^2 xi).
The table of (offset, h, S), in which the central unitary acts trivially:

    a: (0, 2, {})    c+ (even): (1, 0, {-1..-l})    b (odd): (1, 1, {-1..-l})
    c- (odd): (2, 0, {-1..-2l})    z0^m z1^p xi^s: (m, p, {-1..-m})

The kernels c+ e_0 = b e_0 = 0, c- e_0 = c- e_1 = 0 are read from the
relations that state g* g as a product in a (even.4, odd.7, odd.11): a
factor (1 - q^{2e} a) vanishes on e_n exactly where e + ln + r = 0, an
integer condition that holds for every q (modulus_kernels).

A relation side composes, factor by factor, into one such weight with a
q-power and the multiset S of every factor's half-factors, written in
the exponent of the column that the product reads (compose_side).  A
relation holds exactly when its two sides are one operator
(same_operator), so its verdict is exact at every q and on every column;
floats only measure how far apart the sides of a failing relation are.
Failing relations are measured on the N - 2l interior columns when N > 2l,
and on all N columns otherwise.

Every verdict that reads no q comes from one table per family
(family_table): it composes each relation side once and holds the
composed pairs, the same_operator verdict per relation and label, the
modulus kernels per generator, the circle verdict and the intertwiner
verdict per generator.
relation_residuals, kernel_conditions_exact, modulus_kernels,
scalar_relations_exact, intertwiner_check and ktheory's index map and
lift read it, so only a failing relation's residual and
ktheory.pullback_check evaluate weights at q.  The table is memoised in
a bounded lru_cache keyed by (parity, l) alone, since nothing in it
reads q, N or a tolerance.  A negative modulus factor raises from the
build, which is then not cached, so every read of that family raises.

The relabeling Phi_r e_n = e_{ln+r-1} intertwines pi_r(g) with the
ambient pi(j(g)) exactly when the ambient form of j(g) is (lk, h, S) for
g's form (k, h, S): row n of pi_r(g) and row ln+r-1 of pi(j(g)) read the
same exponent x = 2(ln + r) (intertwiner_check).  In the circle of
one-dimensional representations (a = b = 0, |c| = 1) a side is 0 if it
holds a or b, else q^E c^w with w = #c - #c*, so a relation holds on the
whole circle and at every q exactly when both sides are 0 or both have
equal (E, w) (scalar_relations_exact).

Every weight is evaluated one column at a time on Python ints and floats
(form_weights), and no module of the package imports numpy.  A
WeightedShift, a generator compressed to span{e_0, ..., e_{N-1}}, holds
its weights as a tuple of Python floats (rep_generator); only tests build
one, and their dense oracles turn it into a matrix.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import NamedTuple, Sequence

from .qwrp import Relation, RelationSide, generators, relations_for
from .grading import Weights
from .sigma3 import NormalMonomial


class WeightedShift(NamedTuple):
    """The operator M[i, i + offset] = weights[i] on span{e_0, ..., e_{N-1}},
    N = len(weights).  rep_generator writes 0.0 in every row whose column
    i + offset lies outside 0..N-1."""

    offset: int
    weights: tuple[float, ...]


def _check_family(parity: str, l: int, q: float) -> None:
    Weights.canonical(parity, l)  # parity and l, with the family's messages
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")


class WeightForm(NamedTuple):
    """One entry (offset, h, S) of the table in the module docstring."""

    offset: int
    h: int
    factors: tuple[int, ...]


def _down(count: int) -> tuple[int, ...]:
    return tuple(range(-1, -count - 1, -1))


def generator_form(parity: str, l: int, gen: str) -> WeightForm:
    """The weight form of one generator in the family representations."""
    if gen == "a":
        return WeightForm(0, 2, ())
    if gen == "b":
        if parity != "odd":
            raise ValueError("generator b exists only in the odd family")
        return WeightForm(1, 1, _down(l))
    if gen == "c":
        return WeightForm(1, 0, _down(l)) if parity == "even" else WeightForm(2, 0, _down(2 * l))
    raise ValueError(f"unknown generator {gen!r}")


def ambient_form(mono: NormalMonomial) -> WeightForm:
    """The weight form of one basis word in the ambient representation."""
    if mono.m < 0:
        raise ValueError("the ambient representation is tabulated for the z0 family (m >= 0)")
    return WeightForm(mono.m, mono.p, _down(mono.m))


def a_exponents(l: int, r, columns):
    """x_n = 2(ln + r) on each column n (l = r = 1: the ambient one); r and
    columns may also be arrays."""
    return 2 * (l * columns + r)


@functools.lru_cache(maxsize=None)
def _factor_counts(factors: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Each half-factor s with its multiplicity, in first-seen order."""
    return tuple(Counter(factors).items())


def _power(base: float, e: int) -> float:
    """base ** e, with an overflow read as an infinity of the result's sign,
    as numpy reads it."""
    try:
        return base ** e
    except OverflowError:
        return math.copysign(math.inf, base) if e % 2 else math.inf


def form_weights(form: WeightForm | SideForm, q: float, x: int, q_exponent: int = 0) -> float:
    """The weight q^{q_exponent + h x/2} prod_{s in S} (1 - q^{2s + x})^{1/2}
    of a form on one column, whose a-exponent is the integer x.  A repeated
    s is a full factor raised to an integer power, which may be negative; a
    negative radicand under a square root signals a mistyped form (or a
    kernel column) and is a hard error.  A power that overflows reads inf,
    so a failing relation's measurement reads inf rather than raising."""
    acc = 1.0
    for s, count in _factor_counts(form.factors):
        radicand = 1.0 - _power(q, 2 * s + x)
        if count % 2:
            if radicand < 0.0:
                raise ArithmeticError(f"negative radicand 1 - q^{2 * s + x} in shift weight")
            acc = acc * math.sqrt(radicand)
        if count > 1:
            acc = acc * _power(radicand, count // 2)
    return _power(q, q_exponent + form.h * x // 2) * acc


def _weighted_shift(form: WeightForm, q: float, l: int, r: int, dim: int) -> WeightedShift:
    """The weighted shift of a weight form on e_0..e_{N-1}: row n reads
    column n + offset, and is 0.0 where that column lies outside 0..N-1."""
    return WeightedShift(form.offset, tuple(form_weights(form, q, a_exponents(l, r, n + form.offset))
                                            if 0 <= n + form.offset < dim else 0.0 for n in range(dim)))


def rep_generator(parity: str, l: int, r: int, q: float, dim: int, gen: str) -> WeightedShift:
    """One generator in the representation of label r, truncated to dim, as
    a weighted shift."""
    _check_family(parity, l, q)
    if not 1 <= r <= l:
        raise ValueError(f"label r must lie in 1..{l}")
    return _weighted_shift(generator_form(parity, l, gen), q, l, r, dim)


# -- relation residuals ----------------------------------------------


class SideForm(NamedTuple):
    """A relation side composed on the weight table: row i reads column
    i + offset with the weight q^{q_exponent + h X/2} prod_{s in factors}
    (1 - q^{2s + X})^{1/2}, X = 2(l(i + offset) + r), and is 0 below row
    lowest, where some factor would read or write a column below e_0."""

    offset: int
    q_exponent: int
    h: int
    factors: tuple[int, ...]
    lowest: int


def compose_side(side: RelationSide, parity: str, l: int) -> SideForm:
    """Compose a relation side, left to right, from generator_form, written
    in X, the exponent of the column that the product so far reads.
    Appending a factor (k, h_f, S_f) moves that column k steps up, so every
    earlier half-factor s becomes s - lk and the earlier q^{hX/2} gains
    q^{-hlk}.  The adjoint of (k, h, S) is (-k, h, S + lk) times q^{hlk};
    a product factor (1 - q^{2e} a) is the half-factor s = e twice."""
    offset, q_exponent, h, factors, lowest = 0, side.q_exponent, 0, [], 0
    for f in side.factors:
        if f[0] == "prod":
            k, e_f, h_f, s_f = 0, 0, 0, f[1] * 2
        else:
            (k, h_f, s_f), e_f = generator_form(parity, l, f[1]), 0
            if f[2]:
                k, e_f, s_f = -k, h_f * l * k, [s + l * k for s in s_f]
        factors = [s - l * k for s in factors] + list(s_f)
        q_exponent += e_f - h * l * k
        h, offset = h + h_f, offset + k
        lowest = max(lowest, -offset)
    return SideForm(offset, q_exponent, h, tuple(sorted(factors)), lowest)


def same_operator(lhs: SideForm, rhs: SideForm, l: int, r: int) -> bool:
    """Whether two composed sides are one operator for label r, at every q
    and on every column: one weight where both sides reach every column,
    and an exact zero factor on each row where only one side does."""
    low, high = sorted((lhs.lowest, rhs.lowest))
    return lhs[:4] == rhs[:4] and all(any(s + l * (n + lhs.offset) + r == 0 for s in lhs.factors)
                                      for n in range(low, high))


class ResidualEntry(NamedTuple):
    r: int
    rid: str
    residual: float
    passed: bool


# The relation whose right side states g* g as a product in a.
_MODULUS_RELATION = {("even", "c"): "even.4", ("odd", "b"): "odd.7", ("odd", "c"): "odd.11"}


class FamilyTable(NamedTuple):
    """What one family's relations say on the weight table, at every q."""

    sides: tuple[tuple[str, SideForm, SideForm], ...]  # (rid, lhs, rhs) in relations_for order
    same: tuple[tuple[bool, ...], ...]  # same[r - 1][i]: relation i is one operator for label r
    kernels: dict[str, tuple[tuple[int, ...], ...]]  # modulus_kernels per generator with a modulus relation
    circle: bool  # scalar_relations_exact
    intertwines: dict[str, bool]  # Phi_r pi_r(g) = pi(j(g)) Phi_r per generator

    def holds(self, rid: str) -> bool:
        """Whether relation rid's two sides are one operator for every label."""
        i = [side[0] for side in self.sides].index(rid)
        return all(row[i] for row in self.same)


def _generator_names(parity: str) -> tuple[str, ...]:
    return ("a", "c") if parity == "even" else ("a", "b", "c")


@functools.lru_cache(maxsize=64)
def family_table(parity: str, l: int) -> FamilyTable:
    """The family's table, built once per (parity, l) from
    relations_for, generator_form, generators and ambient_form, each
    looked up through this module's names.  Nothing in it reads q, N or
    a tolerance.  A negative modulus factor raises here, and a build
    that raises is not cached, so every read raises again."""
    w = Weights.canonical(parity, l)
    relations = relations_for(parity, l)
    sides = tuple((rel.rid, compose_side(rel.lhs, parity, l), compose_side(rel.rhs, parity, l))
                  for rel in relations)
    same = tuple(tuple(same_operator(lhs, rhs, l, r) for _, lhs, rhs in sides) for r in range(1, l + 1))
    rels = {rel.rid: rel for rel in relations}
    kernels = {gen: _modulus_kernels(rels[rid], l)
               for (family, gen), rid in _MODULUS_RELATION.items() if family == parity}
    circle = all(_circle_value(rel.lhs) == _circle_value(rel.rhs) for rel in relations)
    gens = generators(w)
    intertwines = {}
    for name in _generator_names(parity):
        k, h, factors = generator_form(parity, l, name)
        big = ambient_form(gens.named(name).sole_monomial())
        intertwines[name] = (big.offset, big.h, sorted(big.factors)) == (l * k, h, sorted(factors))
    return FamilyTable(sides, same, kernels, circle, intertwines)


def relation_residuals(parity: str, l: int, q: float = 0.5, dim: int = 256) -> list[ResidualEntry]:
    """Every defining relation, per label r.  It passes when its two sides
    are one operator (family_table), with residual 0.0; otherwise the
    residual is the largest difference of the sides' entries on the
    N - 2l interior columns (all N columns when N <= 2l), in the rows where
    both sides reach every column.  Only a failing relation evaluates a
    weight at q."""
    _check_family(parity, l, q)
    table = family_table(parity, l)
    interior = dim - 2 * l if dim > 2 * l else dim
    entries: list[ResidualEntry] = []
    for r, verdicts in enumerate(table.same, 1):
        for (rid, lhs, rhs), passed in zip(table.sides, verdicts):
            res = 0.0
            if not passed:
                first = max(lhs.lowest, rhs.lowest)  # each side reads columns first + offset onwards
                left, right = ([form_weights(f, q, a_exponents(l, r, n), f.q_exponent)
                                for n in range(first + f.offset, interior)] for f in (lhs, rhs))
                # shifts with different offsets share no entry
                diff = [u - v for u, v in zip(left, right)] if lhs.offset == rhs.offset else left + right
                sizes = [abs(d) for d in diff]
                # a nan (inf - inf, inf * 0) wins, as in numpy's max
                res = math.nan if any(d != d for d in sizes) else max(sizes, default=0.0)
            entries.append(ResidualEntry(r, rid, res, passed))
    return entries


def _modulus_rid(parity: str, gen: str) -> str:
    rid = _MODULUS_RELATION.get((parity, gen))
    if rid is None:
        raise ValueError(f"no relation states g* g for generator {gen!r} in the {parity} family")
    return rid


def _modulus_kernels(rel: Relation, l: int) -> tuple[tuple[int, ...], ...]:
    exps = [e for f in rel.rhs.factors if f[0] == "prod" for e in f[1]]
    kernels = []
    for r in range(1, l + 1):
        kernel = []
        for n in range(max(0, (-min(exps, default=0) - r) // l + 1)):
            heights = [e + l * n + r for e in exps]
            if 0 in heights:
                kernel.append(n)
            elif min(heights) < 0:
                raise ArithmeticError(f"negative modulus factor 1 - q^{2 * min(heights)} "
                                      f"at non-kernel column {n} (label r={r})")
        kernels.append(tuple(kernel))
    return tuple(kernels)


def modulus_kernels(parity: str, l: int, gen: str) -> tuple[tuple[int, ...], ...]:
    """For each label r = 1..l, the columns n >= 0 on which g* g
    vanishes, read off integers: a factor (1 - q^{2e} a) of the relation
    g* g = (a product in a), even.4 for c+, odd.7 for b and odd.11 for
    c-, is zero on e_n exactly where e + ln + r = 0, whatever q is.  A
    factor is negative where e + ln + r < 0, which g* g >= 0
    allows only on a kernel column; anywhere else it is a hard error.
    Past column (-min e - r) / l every factor is positive, so only the
    columns below it are read.  They are read once per family_table."""
    Weights.canonical(parity, l)
    _modulus_rid(parity, gen)
    return family_table(parity, l).kernels[gen]


def kernel_conditions_exact(parity: str, l: int) -> bool:
    """The displayed kernels c+ e_0 = 0, b e_0 = 0, c- e_0 = c- e_1 = 0:
    for every label, the columns on which the relations make g* g vanish
    must be exactly the columns that g's shift lowers out of the space."""
    return all(kernel == tuple(range(generator_form(parity, l, gen).offset))
               for gen, kernels in family_table(parity, l).kernels.items() for kernel in kernels)


def _circle_value(side: RelationSide) -> tuple[int, int] | None:
    gens = [f for f in side.factors if f[0] == "gen"]
    if any(f[1] != "c" for f in gens):
        return None
    return side.q_exponent, sum(-1 if f[2] else 1 for f in gens)


def scalar_relations_exact(parity: str, l: int) -> bool:
    """Whether every relation holds in the whole circle of one-dimensional
    representations, at every q: a = 0 makes every product
    factor 1, so a side with a or b in it is 0 and any other side is
    q^E u^w, w = #c - #c*, on c = u.  Both sides must be 0, or both have
    one (E, w).  Read off family_table."""
    return family_table(parity, l).circle


# -- intertwiner and faithfulness ------------------------------------


def intertwiner_check(parity: str, l: int) -> dict[str, bool]:
    """Per generator g, whether Phi_r pi_r(g) = pi(j(g)) Phi_r for every
    label r, with Phi_r e_n = e_{ln+r-1}: on every column, at every q,
    exactly when ambient_form(j(g)) is (lk, h, S) for generator_form
    (k, h, S), since row n of pi_r(g) and row ln+r-1 of pi(j(g)) read the
    same exponent x = 2(ln + r).  Read off family_table."""
    return dict(family_table(parity, l).intertwines)


def words_independent(monomials: Sequence[NormalMonomial], dim: int) -> bool:
    """Exact linear independence of the truncated ambient images at every
    q, read off the weight forms: offsets are distinct diagonals, and on
    one offset the images q^{h(n+1)} f(n) on the N - offset columns
    offset <= n < N form a generalized Vandermonde system in q^h.  No
    factor of f vanishes there: ambient_form(z0^m ...) has the factors
    -1..-m, which vanish only on the columns n + 1 = -s, that is 0..m-1,
    all below the block's offset m."""
    blocks: dict[int, list[int]] = {}
    for mono in monomials:
        form = ambient_form(mono)
        blocks.setdefault(form.offset, []).append(form.h)
    return all(len(set(hs)) == len(hs) <= max(0, dim - offset) for offset, hs in blocks.items())


# -- assembled report -------------------------------------------------


class RepReport(NamedTuple):
    parity: str
    l: int
    q: float
    dim: int
    tolerance: float  # only echoed: every verdict is exact
    residuals: tuple[ResidualEntry, ...]
    kernel_exact: bool
    circle: bool       # scalar_relations_exact
    intertwines: bool  # intertwiner_check, for every generator

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.residuals) and self.kernel_exact and self.circle and self.intertwines

    def as_dict(self) -> dict:
        return {
            "parity": self.parity,
            "l": self.l,
            "q": self.q,
            "N": self.dim,
            "tolerance": self.tolerance,
            "relation_residuals": [
                {"r": e.r, "id": e.rid, "residual": e.residual, "pass": e.passed}
                for e in self.residuals
            ],
            "kernel_conditions_exact": self.kernel_exact,
            # the exact verdicts keep their float fields: 0.0 holds, 1.0 fails
            "scalar_representation_residual": 0.0 if self.circle else 1.0,
            "intertwiner_residual": 0.0 if self.intertwines else 1.0,
            "all_pass": self.all_pass,
        }


def rep_report(parity: str, l: int, q: float = 0.5, dim: int = 256,
               tol: float = 1e-10) -> RepReport:
    _check_family(parity, l, q)
    if dim < 1:
        raise ValueError("dim must be positive")
    return RepReport(
        parity=parity,
        l=l,
        q=q,
        dim=dim,
        tolerance=tol,
        residuals=tuple(relation_residuals(parity, l, q, dim)),
        kernel_exact=kernel_conditions_exact(parity, l),
        circle=scalar_relations_exact(parity, l),
        intertwines=all(intertwiner_check(parity, l).values()),
    )
