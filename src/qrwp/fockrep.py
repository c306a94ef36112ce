"""Finite truncations of the bounded irreducible *-representations.

The infinite-dimensional representations of the even/odd families act
on l^2(N) by weighted shifts:

    even:  a e_n = q^{2(ln+r)} e_n,
           c+ e_n = prod_{m=1}^{l} (1 - q^{2(ln+r-m)})^{1/2} e_{n-1},  c+ e_0 = 0,
    odd:   b  e_n = q^{ln+r} prod_{m=1}^{l} (1 - q^{2(ln+r-m)})^{1/2} e_{n-1},  b e_0 = 0,
           c- e_n = prod_{m=1}^{2l} (1 - q^{2(ln+r-m)})^{1/2} e_{n-2},  c- e_0 = c- e_1 = 0,

with labels r = 1..l, plus the one-dimensional family a -> 0 (and
b -> 0), c -> e^{2 pi i theta}.  The displayed kernels are read from
the relations that state g* g as a product in a (even.4, odd.7,
odd.11): on e_n that product vanishes exactly on the kernel columns
(kernel_columns).  The ambient algebra has the faithful representation

    pi(z0^m z1^p xi^s) e_n = q^{p(n+1)} prod_{t=0}^{m-1} (1 - q^{2(n-t)})^{1/2} e_{n-m}

(zero when m > n; the central unitary acts trivially).  Everything here
is compressed to span{e_0, ..., e_{N-1}}; all displayed operators lower
the index, so compression is exact except in the top band, and checks
are evaluated on the interior window of N - 2l columns (so N > 2l).

Every operator here is a weighted shift and is stored as one
(WeightedShift: an offset and a weight vector).  Products and adjoints
stay weighted shifts, so a relation side costs O(N) per factor.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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
    """The operator M[i, i + offset] = weights[i] on span{e_0, ..., e_{N-1}}.

    a is diagonal (offset 0), b and c+ lower the index by one, c- by two,
    and adjoints raise it.  Weights whose column i + offset lies outside
    0..N-1 are zero.  exponents is set only for a diagonal of q-powers
    built by q_power."""

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

    @classmethod
    def q_power(cls, q: float, exponents) -> "WeightedShift":
        """The diagonal e_n -> q^{exponents[n]} e_n.  It keeps the integer
        exponents so that 1 - q^{2e} M is evaluated as 1 - q^{2e + exponents},
        whose exact zeros stay exact."""
        exps = np.asarray(exponents)
        return cls(0, q ** exps, exps)

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


@dataclass(frozen=True, slots=True)
class RepInstance:
    """One infinite-dimensional representation label, truncated to dim."""

    parity: str
    l: int
    r: int
    q: float
    dim: int

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError(f"unknown parity {self.parity!r}")
        if self.l < 1:
            raise ValueError("l must be a positive integer")
        if self.parity == "even" and self.l % 2 == 0:
            raise ValueError("the even family requires odd l")
        if not 1 <= self.r <= self.l:
            raise ValueError(f"label r must lie in 1..{self.l}")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.dim < 1:
            raise ValueError("dim must be positive")


def _sqrt_weight(q: float, exponents: Iterable) -> np.ndarray:
    """prod_e (1 - q^{2e})^{1/2} entrywise, one integer array e per factor;
    a negative radicand signals a formula transcription bug and is a hard
    error."""
    acc = 1.0
    for e in exponents:
        e = np.asarray(e)
        radicand = 1.0 - q ** (2 * e)
        if np.any(radicand < 0.0):
            raise ArithmeticError(f"negative radicand 1 - q^{2 * int(np.min(e))} in shift weight")
        acc = acc * np.sqrt(radicand)
    return acc


def rep_generator(inst: RepInstance, gen: str) -> WeightedShift:
    """One generator in the representation inst, as a weighted shift.

    b and c+ lower the index by one, c- by two (its word has z0^{2l});
    components that leave the truncation are dropped."""
    n_dim, l, r, q = inst.dim, inst.l, inst.r, inst.q
    if gen == "a":
        return WeightedShift.q_power(q, 2 * (l * np.arange(n_dim) + r))
    if gen == "b" and inst.parity != "odd":
        raise ValueError("generator b exists only in the odd family")
    if gen not in ("b", "c"):
        raise ValueError(f"unknown generator {gen!r}")
    step = 2 if gen == "c" and inst.parity == "odd" else 1
    nfactors = l * step  # l factors for b and c+, 2l for c-
    n = np.arange(n_dim) + step  # the column of each row; the top step rows fall outside
    weights = _sqrt_weight(q, (l * n + r - m for m in range(1, nfactors + 1)))
    if gen == "b":
        weights = q ** (l * n + r) * weights
    return WeightedShift(step, weights)


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
    """The ambient-algebra representation of one basis word (z0 family
    only), a shift by the z0 power m; it annihilates e_n for n < m."""
    if mono.m < 0:
        raise ValueError("the ambient representation is tabulated for the z0 family (m >= 0)")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    m, p = mono.m, mono.p
    n = np.arange(dim) + m  # the column of each row
    return WeightedShift(m, q ** (p * (n + 1)) * _sqrt_weight(q, (n - t for t in range(m))))


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


def kernel_columns(inst: RepInstance, gen: str) -> tuple[np.ndarray, int]:
    """The diagonal of g* g on e_0..e_{N-1}, and the kernel size of g.

    The diagonal is the right side of the relation that states g* g
    (even.4 for c+, odd.7 for b, odd.11 for c-), evaluated on a's
    integer exponents so that its zeros are exact.  The kernel of g is
    the number of leading exact zeros; later zeros do not count (the
    factor a in odd.7 underflows to 0.0 deep in the tail)."""
    rid = _MODULUS_RELATION.get((inst.parity, gen))
    if rid is None:
        raise ValueError(f"no relation states g* g for generator {gen!r} in the {inst.parity} family")
    rel = next(rel for rel in relations_for(inst.parity, inst.l) if rel.rid == rid)
    diag = eval_side_matrix(rel.rhs, {"a": rep_generator(inst, "a")}, inst.q).weights
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


def kernel_conditions_exact(parity: str, l: int, q: float = 0.5, dim: int = 256) -> bool:
    """The displayed kernels c+ e_0 = 0, b e_0 = 0, c- e_0 = c- e_1 = 0:
    for every label, the exact zeros that the relations place at the
    start of g* g must be exactly the columns that g's shift lowers out
    of the space (as far as the truncation holds them)."""
    names = ("c",) if parity == "even" else ("b", "c")
    for r in range(1, l + 1):
        inst = RepInstance(parity, l, r, q, dim)
        for name in names:
            if kernel_columns(inst, name)[1] != min(rep_generator(inst, name).offset, dim):
                return False
    return True


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


def faithfulness_probe(monomials: Sequence[NormalMonomial], q: float = 0.5,
                       dim: int = 128, tol: float = 1e-8) -> bool:
    """True when the truncated images are linearly independent.

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
    kernel = kernel_conditions_exact(parity, l, q, dim)
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
