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
integer condition that holds for every q (modulus_kernel).  The float
scan of g* g's diagonal (kernel_columns) is kept as its test oracle.
Everything is compressed to span{e_0, ..., e_{N-1}}; all displayed
operators lower the index, so compression is exact except in the top
band, and checks read the interior window of N - 2l columns (so N > 2l).
Every operator is stored as a WeightedShift; products and adjoints stay
weighted shifts, so a relation side costs O(N) per factor.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .qwrp import RelationSide, generators, relations_for
from .grading import Weights
from .sigma3 import NormalMonomial


def _shifted(d: np.ndarray, k: int) -> np.ndarray:
    """out[i] = d[i + k], zero where i + k leaves 0..len(d)-1."""
    if k == 0:
        return d
    n = d.size
    out = np.zeros(n, dtype=d.dtype)
    if k >= 0:
        out[:max(0, n - k)] = d[k:]
    else:
        out[-k:] = d[:max(0, n + k)]
    return out


@dataclass(frozen=True, eq=False, slots=True)
class WeightedShift:
    """The operator M[i, i + offset] = weights[i] on span{e_0, ..., e_{N-1}};
    weights whose column i + offset lies outside 0..N-1 are zero.  A shift
    built from a weight form keeps in exponents the x of the column that
    each row reads (see eval_side_matrix)."""

    offset: int
    weights: np.ndarray
    exponents: np.ndarray | None = None

    def __post_init__(self):
        w = np.array(self.weights)
        if w.ndim != 1:
            raise ValueError("weights of a weighted shift form a vector")
        if self.offset > 0:
            w[max(0, w.size - self.offset):] = 0
        elif self.offset < 0:
            w[:-self.offset] = 0
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size

    def __matmul__(self, other: "WeightedShift") -> "WeightedShift":
        """(AB)[i, i + kA + kB] = dA[i] * dB[i + kA].  An exact zero factor
        gives an exact zero, also against a factor that overflowed to inf."""
        d_a, d_b = self.weights, _shifted(other.weights, self.offset)
        out = np.zeros(d_a.size, dtype=np.result_type(d_a, d_b))
        np.multiply(d_a, d_b, out=out, where=(d_a != 0) & (d_b != 0))
        return WeightedShift(self.offset + other.offset, out)

    def adjoint(self) -> "WeightedShift":
        return WeightedShift(-self.offset, _shifted(self.weights.conj(), -self.offset))

    def column_max(self, cols: int) -> float:
        """Largest |entry| in the first cols columns (0 when there is none)."""
        rows = max(0, min(self.dim, cols - self.offset))
        return float(np.max(np.abs(self.weights[:rows]))) if rows else 0.0

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix, built on demand (for the faithfulness
        probe and for tests)."""
        rows = np.arange(self.dim)
        keep = (rows + self.offset >= 0) & (rows + self.offset < self.dim)
        mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
        mat[rows[keep], rows[keep] + self.offset] = self.weights[keep]
        return mat


def _check_label(parity: str, l: int, r: int) -> None:
    if parity not in ("even", "odd"):
        raise ValueError(f"unknown parity {parity!r}")
    if l < 1:
        raise ValueError("l must be a positive integer")
    if parity == "even" and l % 2 == 0:
        raise ValueError("the even family requires odd l")
    if not 1 <= r <= l:
        raise ValueError(f"label r must lie in 1..{l}")


@dataclass(frozen=True, slots=True)
class RepInstance:
    """One infinite-dimensional representation label, truncated to dim."""

    parity: str
    l: int
    r: int
    q: float
    dim: int

    def __post_init__(self):
        _check_label(self.parity, self.l, self.r)
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.dim < 1:
            raise ValueError("dim must be positive")


class WeightForm(NamedTuple):
    """One entry (offset, h, S) of the table in the module docstring."""

    offset: int
    h: int
    factors: tuple[int, ...]


def _down(count: int) -> tuple[int, ...]:
    return tuple(range(-1, -count - 1, -1))


def generator_form(parity: str, l: int, gen: str) -> WeightForm:
    """The weight form of one generator in the family representations."""
    if gen == "b" and parity != "odd":
        raise ValueError("generator b exists only in the odd family")
    forms = {"a": WeightForm(0, 2, ()), "b": WeightForm(1, 1, _down(l)),
             "c": WeightForm(1, 0, _down(l)) if parity == "even" else WeightForm(2, 0, _down(2 * l))}
    if gen not in forms:
        raise ValueError(f"unknown generator {gen!r}")
    return forms[gen]


def ambient_form(mono: NormalMonomial) -> WeightForm:
    """The weight form of one basis word in the ambient representation."""
    if mono.m < 0:
        raise ValueError("the ambient representation is tabulated for the z0 family (m >= 0)")
    return WeightForm(mono.m, mono.p, _down(mono.m))


def a_exponents(l: int, r: int | np.ndarray, columns: np.ndarray) -> np.ndarray:
    """x_n = 2(ln + r) on each column n (l = r = 1: the ambient one)."""
    return 2 * (l * columns + r)


def form_weights(form: WeightForm, q: float, x: np.ndarray) -> np.ndarray:
    """The weights q^{h x/2} prod_{s in S} (1 - q^{2s + x})^{1/2} of a form
    on a's integer exponents x.  A negative radicand signals a mistyped
    form (or a kernel column) and is a hard error."""
    acc = 1.0
    for s in form.factors:
        radicand = 1.0 - q ** (2 * s + x)
        if np.any(radicand < 0.0):
            raise ArithmeticError(f"negative radicand 1 - q^{int(np.min(2 * s + x))} in shift weight")
        acc = acc * np.sqrt(radicand)
    return q ** (form.h * x // 2) * acc


def _weighted_shift(form: WeightForm, q: float, l: int, r: int, dim: int) -> WeightedShift:
    """The weighted shift of a weight form on e_0..e_{N-1}."""
    x = a_exponents(l, r, np.arange(dim) + form.offset)  # the column each row reads
    return WeightedShift(form.offset, form_weights(form, q, x), x)


def rep_generator(inst: RepInstance, gen: str) -> WeightedShift:
    """One generator in the representation inst, as a weighted shift."""
    return _weighted_shift(generator_form(inst.parity, inst.l, gen), inst.q, inst.l, inst.r, inst.dim)


def rep_scalar(theta: float, parity: str) -> dict[str, complex]:
    """The one-dimensional representation: a (and b) vanish, c is the
    unit-circle value e^{2 pi i theta}."""
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    values = {"a": 0j, "c": cmath.exp(2j * math.pi * theta)}
    if parity == "odd":
        values["b"] = 0j
    elif parity != "even":
        raise ValueError(f"unknown parity {parity!r}")
    return values


def rep_sigma(mono: NormalMonomial, q: float, dim: int) -> WeightedShift:
    """The ambient representation of one basis word (z0 family only)."""
    form = ambient_form(mono)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    return _weighted_shift(form, q, 1, 1, dim)


# -- relation residuals ----------------------------------------------


def eval_side_matrix(side: RelationSide, ops: Mapping[str, WeightedShift], q: float) -> WeightedShift:
    """Evaluate one relation side on weighted-shift operators.

    A factor (1 - q^{2e} a) acts on e_n as 1 - q^{2e + x_n}, with x_n the
    integer exponent of a's diagonal, so it is exactly zero where
    2e + x_n = 0 instead of a rounding residue that the other factors
    (up to q^{-4l}) would amplify."""
    a = ops["a"]
    out = WeightedShift(0, np.full(a.dim, q ** side.q_exponent))
    for f in side.factors:
        if f[0] == "gen":
            op = ops[f[1]]
            out = out @ (op.adjoint() if f[2] else op)
        else:
            for e in f[1]:
                # at tiny q a kernel column's factor overflows to -inf; the
                # exact zero factor of that column absorbs it in the product
                with np.errstate(over="ignore"):
                    factor = 1.0 - q ** (2 * e + a.exponents)
                out = out @ WeightedShift(0, factor)
    return out


# The relation whose right side states g* g as a product in a.
_MODULUS_RELATION = {("even", "c"): "even.4", ("odd", "b"): "odd.7", ("odd", "c"): "odd.11"}


def modulus_side(parity: str, l: int, gen: str) -> RelationSide:
    """The right side of the relation that states g* g: even.4 for c+,
    odd.7 for b, odd.11 for c-."""
    rid = _MODULUS_RELATION.get((parity, gen))
    if rid is None:
        raise ValueError(f"no relation states g* g for generator {gen!r} in the {parity} family")
    return next(rel.rhs for rel in relations_for(parity, l) if rel.rid == rid)


def modulus_kernel(parity: str, l: int, r: int, gen: str) -> tuple[int, ...]:
    """The columns n >= 0 on which g* g vanishes for label r, read off
    integers: a factor (1 - q^{2e} a) of modulus_side is zero on e_n
    exactly where e + ln + r = 0, whatever q is.  A factor is negative
    where e + ln + r < 0, which g* g >= 0 allows only on a kernel column;
    anywhere else it is a hard error.  Past column (-min e - r) / l every
    factor is positive, so only the columns below it are read."""
    _check_label(parity, l, r)
    exps = [e for f in modulus_side(parity, l, gen).factors if f[0] == "prod" for e in f[1]]
    kernel = []
    for n in range(max(0, (-min(exps, default=0) - r) // l + 1)):
        heights = [e + l * n + r for e in exps]
        if 0 in heights:
            kernel.append(n)
        elif min(heights) < 0:
            raise ArithmeticError(f"negative modulus factor 1 - q^{2 * min(heights)} "
                                  f"at non-kernel column {n} (label r={r})")
    return tuple(kernel)


def kernel_columns(inst: RepInstance, gen: str) -> tuple[np.ndarray, int]:
    """The diagonal of g* g on e_0..e_{N-1}, and its run of leading exact
    zeros: modulus_side evaluated in floats.  Only tests call it, as the
    numeric cross-check of modulus_kernel (the factor a in odd.7
    underflows to 0.0 deep in the tail, so later zeros do not count)."""
    rhs = modulus_side(inst.parity, inst.l, gen)
    diag = eval_side_matrix(rhs, {"a": rep_generator(inst, "a")}, inst.q).weights
    nonzero = np.flatnonzero(diag)
    return diag, int(nonzero[0]) if nonzero.size else diag.size


def _interior_max(lhs: WeightedShift, rhs: WeightedShift, interior_cols: int) -> float:
    """Max |lhs - rhs| over the first interior_cols columns."""
    if lhs.offset == rhs.offset:
        return WeightedShift(lhs.offset, lhs.weights - rhs.weights).column_max(interior_cols)
    return max(lhs.column_max(interior_cols), rhs.column_max(interior_cols))


def _instance_ops(inst: RepInstance) -> dict[str, WeightedShift]:
    names = ("a", "c") if inst.parity == "even" else ("a", "b", "c")
    return {name: rep_generator(inst, name) for name in names}


@dataclass(frozen=True, slots=True)
class ResidualEntry:
    r: int
    rid: str
    residual: float
    passed: bool


def relation_residuals(parity: str, l: int, q: float = 0.5, dim: int = 256,
                       tol: float = 1e-10) -> list[ResidualEntry]:
    """Max interior residual of every defining relation, per label r."""
    rels = relations_for(parity, l)
    entries: list[ResidualEntry] = []
    interior = max(0, dim - 2 * l)
    for r in range(1, l + 1):
        ops = _instance_ops(RepInstance(parity, l, r, q, dim))
        for rel in rels:
            lhs = eval_side_matrix(rel.lhs, ops, q)
            rhs = eval_side_matrix(rel.rhs, ops, q)
            res = _interior_max(lhs, rhs, interior)
            entries.append(ResidualEntry(r=r, rid=rel.rid, residual=res, passed=res < tol))
    return entries


def kernel_conditions_exact(parity: str, l: int) -> bool:
    """The displayed kernels c+ e_0 = 0, b e_0 = 0, c- e_0 = c- e_1 = 0:
    for every label, the columns on which the relations make g* g vanish
    must be exactly the columns that g's shift lowers out of the space."""
    names = ("c",) if parity == "even" else ("b", "c")
    return all(modulus_kernel(parity, l, r, name) == tuple(range(generator_form(parity, l, name).offset))
               for r in range(1, l + 1) for name in names)


def scalar_relation_residual(parity: str, l: int, theta: float, q: float = 0.5) -> float:
    """Max residual of the relation set in the one-dimensional
    representation: a = 0 makes every product factor equal 1, so a side
    is its q-power times the generator values, conjugated where starred."""
    # Python complex arithmetic: numpy's vectorised complex product may be
    # fused and leave an imaginary residue of ~1e-18 in c c* = 1.
    values = rep_scalar(theta, parity)

    def value(side: RelationSide) -> complex:
        out = q ** side.q_exponent
        for f in side.factors:
            if f[0] == "gen":
                out *= values[f[1]].conjugate() if f[2] else values[f[1]]
        return out

    return max(abs(value(rel.lhs) - value(rel.rhs)) for rel in relations_for(parity, l))


# -- intertwiner and faithfulness ------------------------------------


def subspace_dim(l: int, r: int, dim: int) -> int:
    """Number of small-side vectors e_n^r mapped into the big truncation:
    the relabeling sends e_n^r to e_{ln+r-1}."""
    return (dim - r) // l + 1


def _relabeled_residual(small: WeightedShift, big: WeightedShift, l: int, r: int,
                        interior: int) -> float:
    """Max |Phi small - big Phi| over the small-side columns n whose image
    ln+r-1 lies in the interior window; Phi e_n = e_{ln+r-1}.

    Column n of Phi small holds small's column-n weight at row
    l(n - k) + r - 1; column n of big Phi holds big's weight from column
    ln + r - 1 at row ln + r - 1 - K (k, K the offsets).  The rows agree
    when K = lk."""
    cols = np.arange(small.dim)
    cols = cols[l * cols + r - 1 < interior]
    here = _shifted(small.weights, -small.offset)[cols]
    there = _shifted(big.weights, -big.offset)[l * cols + r - 1]
    if big.offset == l * small.offset:
        return float(np.max(np.abs(here - there), initial=0.0))
    return float(max(np.max(np.abs(here), initial=0.0), np.max(np.abs(there), initial=0.0)))


def intertwiner_check(parity: str, l: int, q: float = 0.5, dim: int = 256) -> dict:
    """Compare the relabeled family representations with the ambient
    representation of the substituted generator words.

    For each generator g and label r the columns of
    Phi_r pi_r(g) - pi(j(g)) Phi_r are measured on the interior window;
    Phi_r places e_n^r at position ln+r-1, so each column compares the
    family weight w_r[n] with the ambient weight at row ln+r-1."""
    w = Weights.canonical(parity, l)
    gens = generators(w)
    names = ["a", "c"] if parity == "even" else ["a", "b", "c"]
    per_generator: dict[str, float] = {}
    interior = max(0, dim - 2 * l)
    for name in names:
        big = rep_sigma(gens.named(name).sole_monomial(), q, dim)
        worst = 0.0
        for r in range(1, l + 1):
            small = rep_generator(RepInstance(parity, l, r, q, subspace_dim(l, r, dim)), name)
            worst = max(worst, _relabeled_residual(small, big, l, r, interior))
        per_generator[name] = worst
    return {
        "parity": parity,
        "l": l,
        "q": q,
        "N": dim,
        "per_generator": per_generator,
        "max_residual": max(per_generator.values()),
    }


def words_independent(monomials: Sequence[NormalMonomial], dim: int) -> bool:
    """Exact linear independence of the truncated ambient images at every
    q, read off the weight forms: offsets are distinct diagonals, and on
    one offset the images q^{h(n+1)} f(n), on the columns n < N where no
    factor of f vanishes, form a generalized Vandermonde system in q^h."""
    blocks: dict[int, list[WeightForm]] = {}
    for mono in monomials:
        form = ambient_form(mono)
        blocks.setdefault(form.offset, []).append(form)
    for offset, forms in blocks.items():
        x = a_exponents(1, 1, np.arange(offset, dim))
        columns = np.count_nonzero(~np.isin(x, [-2 * s for form in forms for s in form.factors]))
        if len({form.h for form in forms}) < len(forms) or len(forms) > columns:
            return False
    return True


def faithfulness_probe(monomials: Sequence[NormalMonomial], q: float = 0.5,
                       dim: int = 128, tol: float = 1e-8) -> bool:
    """True when the truncated images are linearly independent; the
    dense test oracle of words_independent.

    Images are normalized before the rank computation (independence is
    scale-invariant and the word norms vary over many orders of
    magnitude); the numeric rank counts singular values above
    tol * largest."""
    monomials = list(monomials)
    if len(monomials) > dim // 2:
        raise ValueError("monomial list exceeds half the truncation size")
    if not monomials:
        return True
    rows = []
    for mono in monomials:
        v = rep_sigma(mono, q, dim).matrix.reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return False
        rows.append(v / norm)
    stack = np.array(rows)
    svals = np.linalg.svd(stack, compute_uv=False)
    rank = int(np.sum(svals > tol * svals[0]))
    return rank == len(monomials)


# -- assembled report -------------------------------------------------


@dataclass(frozen=True, slots=True)
class RepReport:
    parity: str
    l: int
    q: float
    dim: int
    tolerance: float
    residuals: tuple[ResidualEntry, ...]
    kernel_exact: bool
    scalar_residual: float
    intertwiner_residual: float

    @property
    def all_pass(self) -> bool:
        return (
            all(e.passed for e in self.residuals)
            and self.kernel_exact
            and self.scalar_residual < self.tolerance
            and self.intertwiner_residual < self.tolerance
        )

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
            "scalar_representation_residual": self.scalar_residual,
            "intertwiner_residual": self.intertwiner_residual,
            "all_pass": self.all_pass,
        }


def rep_report(parity: str, l: int, q: float = 0.5, dim: int = 256,
               tol: float = 1e-10) -> RepReport:
    if l < 1:
        raise ValueError("l must be a positive integer")
    if dim <= 2 * l:
        raise ValueError(f"truncation too small: l={l} needs N >= {2 * l + 1} "
                         f"(the checks read the N - 2l interior columns)")
    # the smallest q at which every relation scalar q^e fits in a double,
    # rounded up to the three digits that the message prints
    lowest = min(side.q_exponent for rel in relations_for(parity, l) for side in (rel.lhs, rel.rhs))
    bound = math.exp(math.log(sys.float_info.max) / lowest)
    scale = 10.0 ** (math.floor(math.log10(bound)) - 2)
    q_min = float(f"{math.ceil(bound / scale) * scale:.3g}")
    if q < q_min:
        raise ValueError(f"q too small: l={l} needs q >= {q_min:g} "
                         f"(the relation scalar q^{lowest} must fit in a double)")
    residuals = tuple(relation_residuals(parity, l, q, dim, tol))
    kernel = kernel_conditions_exact(parity, l)
    scalar = max(scalar_relation_residual(parity, l, theta, q) for theta in (0.0, 0.25, 0.5, 0.8))
    inter = intertwiner_check(parity, l, q, dim)["max_residual"]
    return RepReport(
        parity=parity,
        l=l,
        q=q,
        dim=dim,
        tolerance=tol,
        residuals=residuals,
        kernel_exact=kernel,
        scalar_residual=scalar,
        intertwiner_residual=inter,
    )
