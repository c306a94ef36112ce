"""K-theory of the quotient C*-algebras from truncated shift data.

The quotient algebra of either family sits in a short exact sequence
with a sum of l compact ideals and circle functions as quotient.  The
connecting index map sends the quotient unitary's class to the defect
class of a lifted coisometry: per label r the lift is the generator c
divided by the square root of its modulus c* c = prod_m (1 - q^{-2m} a),
a bare shift past the kernel of c.  That kernel is the run of exact
zeros at the start of the modulus (fockrep.kernel_columns): one column
in the even family, two in the odd.  The defect 1 - U*U of the lift
projects onto those columns, so its rank is the lift's step.  The ranks
fill an l x 1 integer matrix; kernel and cokernel of that matrix, read
off from its Smith normal form, assemble the K-groups:

    K_1 = ker(delta),    K_0 = coker(delta) (+) Z.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fockrep import RepInstance, WeightedShift, kernel_columns, rep_generator
from .qlaurent import power_text


# -- exact integer linear algebra --------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Smith normal form with transforms: returns (U, D, V) such that
    D = U @ A @ V, U and V unimodular, D diagonal with each diagonal
    entry nonnegative and dividing the next."""
    d = [[int(x) for x in row] for row in matrix]
    nrows = len(d)
    ncols = len(d[0]) if nrows else 0
    if any(len(row) != ncols for row in d):
        raise ValueError("ragged matrix")
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, k):
        # row_i += k * row_j
        d[i] = [x + k * y for x, y in zip(d[i], d[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, k):
        # col_i += k * col_j
        for row in d:
            row[i] += k * row[j]
        for row in v:
            row[i] += k * row[j]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(nrows, ncols)):
        while True:
            pivot = None
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    val = abs(d[i][j])
                    if val and (best is None or val < best):
                        best = val
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            clean = True
            for i in range(t + 1, nrows):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t]:
                        clean = False
            for j in range(t + 1, ncols):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j]:
                        clean = False
            if not clean:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if d[i][j] % d[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if t < min(nrows, ncols) and d[t][t] < 0:
            negate_row(t)
    return u, d, v


@dataclass(frozen=True, slots=True)
class GroupDescriptor:
    """A finitely generated abelian group: free rank plus torsion orders
    in Smith canonical form (each dividing the next, all > 1)."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __str__(self) -> str:
        parts = [f"Z{t}" for t in self.torsion] + [power_text("Z", self.free_rank)]
        return " (+) ".join(filter(None, parts)) or "0"

    def as_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


@dataclass(frozen=True, slots=True)
class KGroups:
    k0: GroupDescriptor
    k1: GroupDescriptor


@dataclass(frozen=True, slots=True)
class IndexMap:
    """The connecting map Z -> Z^l, stored as its column of defect ranks."""

    parity: str
    l: int
    entries: tuple[int, ...]

    def matrix(self) -> list[list[int]]:
        return [[e] for e in self.entries]


# -- coisometry lifts ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class CoisometryLift:
    r: int
    shift: WeightedShift
    max_interior_deviation: float


def coisometry_pair(parity: str, l: int, r: int, q: float, dim: int) -> CoisometryLift:
    """The lifted coisometry for one label, built two ways: as the bare
    shift past the kernel of c, and as c divided by the square root of
    its modulus

        c* c = prod_{m=1}^{L} (1 - q^{-2m} a),   L = l (even) or 2l (odd).

    Both the modulus and the kernel (its leading exact zeros) come from
    fockrep.kernel_columns; a vanishing or negative modulus past the
    kernel is a hard error."""
    if dim < 4 * l:
        raise ValueError(f"truncation too small: l={l} needs N >= {4 * l}")
    inst = RepInstance(parity, l, r, q, dim)
    c = rep_generator(inst, "c")
    diag, step = kernel_columns(inst, "c")
    bad = np.flatnonzero(diag[step:] <= 0.0) + step
    if bad.size:
        raise ArithmeticError(f"singular modulus factor {diag[bad[0]]} at non-kernel column {bad[0]}")
    formula = np.zeros(dim)
    formula[:dim - step] = c.weights[:dim - step] / np.sqrt(diag[step:])
    interior = max(0, dim - 2 * l)
    shift = WeightedShift(step, np.ones(dim))
    deviation = WeightedShift(step, formula - shift.weights).column_max(interior)
    return CoisometryLift(r=r, shift=shift, max_interior_deviation=deviation)


def coisometry_lift(parity: str, l: int, q: float = 0.5, dim: int = 128) -> list[CoisometryLift]:
    return [coisometry_pair(parity, l, r, q, dim) for r in range(1, l + 1)]


def _defect_ranks(parity: str, l: int, lifts: Sequence[CoisometryLift]) -> IndexMap:
    """The defect 1 - U*U of a bare shift by k projects onto e_0..e_{k-1},
    so its rank is the shift's offset, the kernel size of c."""
    return IndexMap(parity=parity, l=l, entries=tuple(lift.shift.offset for lift in lifts))


def index_map(parity: str, l: int, q: float = 0.5, dim: int = 128) -> IndexMap:
    """Defect ranks of the lifted coisometries, one entry per label."""
    return _defect_ranks(parity, l, coisometry_lift(parity, l, q, dim))


# -- K-group assembly ----------------------------------------------------


def assemble_kgroups(delta: IndexMap) -> KGroups:
    """K_1 = ker(delta) and K_0 = coker(delta) (+) Z, via the Smith
    normal form of the l x 1 matrix.  A zero map yields K_1 = Z; the
    result is reported as computed, mismatches are the caller's check."""
    column = delta.matrix()
    _, d, _ = smith_normal_form(column)
    diag = [d[i][i] for i in range(min(len(column), 1))]
    pivot = diag[0] if diag else 0
    k1 = GroupDescriptor(free_rank=0 if pivot else 1)
    coker_free = delta.l - (1 if pivot else 0)
    torsion = (pivot,) if pivot > 1 else ()
    k0 = GroupDescriptor(free_rank=coker_free + 1, torsion=torsion)
    return KGroups(k0=k0, k1=k1)


def expected_kgroups(parity: str, l: int) -> KGroups:
    """The closed-form answers: Z^l (even) or Z2 (+) Z^l (odd), with
    vanishing K_1 in both families."""
    if parity == "even":
        return KGroups(k0=GroupDescriptor(l), k1=GroupDescriptor(0))
    if parity == "odd":
        return KGroups(k0=GroupDescriptor(l, (2,)), k1=GroupDescriptor(0))
    raise ValueError(f"unknown parity {parity!r}")


def cokernel_map_check(parity: str, l: int, box: int = 3) -> bool:
    """Validate the explicit cokernel isomorphism by finite enumeration.

    Vectors in [-box, box]^l are grouped into cosets of the image of
    the index map (steps along the constant vector (1,..,1) or
    (2,..,2)); the candidate map

        even: (n_1,..,n_l) -> (n_2 - n_1, ..., n_l - n_1)
        odd:  (n_1,..,n_l) -> (n_1 mod 2, n_2 - n_1, ..., n_l - n_1)

    must be constant on each coset and distinct across cosets."""
    step = 1 if parity == "even" else 2
    vectors = list(itertools.product(range(-box, box + 1), repeat=l))
    index = {v: i for i, v in enumerate(vectors)}
    parent = list(range(len(vectors)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for v in vectors:
        moved = tuple(x + step for x in v)
        if moved in index:
            union(index[v], index[moved])

    def image(v: tuple[int, ...]) -> tuple[int, ...]:
        diffs = tuple(x - v[0] for x in v[1:])
        if parity == "even":
            return diffs
        return (v[0] % 2,) + diffs

    class_image: dict[int, tuple[int, ...]] = {}
    for v in vectors:
        root = find(index[v])
        img = image(v)
        if root in class_image:
            if class_image[root] != img:
                return False  # not well defined on cosets
        else:
            class_image[root] = img
    # injectivity across cosets
    return len(set(class_image.values())) == len(class_image)


# -- pullback consistency -------------------------------------------------


def pullback_check(parity: str, l: int, q: float = 0.5, dim: int = 256,
                   eps: float = 1e-10) -> dict:
    """Compactness proxy for the symbol-map picture.

    Per label r the nonzero entries of c - shift are the weight defects
    w_n - 1; they must decay monotonically, and the report locates the
    first index n0 past which they stay below eps.  All labels share the
    bare shift as symbol, so pairwise weight differences must be equally
    small beyond the largest n0."""
    cs = [rep_generator(RepInstance(parity, l, r, q, dim), "c") for r in range(1, l + 1)]
    step = cs[0].offset
    weights: dict[int, np.ndarray] = {}
    per_r = []
    n0_max = step
    ok = True
    for r, c in enumerate(cs, start=1):
        w = c.weights[:dim - step]
        weights[r] = w
        defect = np.abs(w - 1.0)
        monotone = bool(np.all(np.diff(defect) <= 0.0))
        below = np.nonzero(defect < eps)[0]
        n0 = int(below[0]) + step if below.size else None
        tail_max = float(np.max(defect[n0 - step:])) if n0 is not None else float(defect.max())
        entry_ok = monotone and n0 is not None and tail_max < eps
        per_r.append({
            "r": r,
            "monotone_decay": monotone,
            "n0": n0,
            "tail_max": tail_max,
            "pass": entry_ok,
        })
        ok = ok and entry_ok
        if n0 is not None:
            n0_max = max(n0_max, n0)
    pairwise = []
    for r, s in itertools.combinations(range(1, l + 1), 2):
        diff = np.abs(weights[r] - weights[s])
        tail = float(np.max(diff[n0_max - step:])) if diff.size > n0_max - step else 0.0
        pair_ok = tail < 2 * eps
        pairwise.append({"r": r, "s": s, "tail_max": tail, "pass": pair_ok})
        ok = ok and pair_ok
    return {
        "parity": parity,
        "l": l,
        "q": q,
        "N": dim,
        "epsilon": eps,
        "per_r": per_r,
        "pairwise": pairwise,
        "all_pass": ok,
    }


# Largest truncation the pullback proxy may size itself to.
PULLBACK_MAX_DIM = 2 ** 20


def _pullback_dim(parity: str, l: int, q: float, dim: int, eps: float) -> int:
    """Truncation for pullback_check: max(dim, 256) or, nearer q = 1, one
    past the column n where c's weight defect is certainly below eps/2.

    1 - w_n <= sum_{m=1}^{L} q^{2(ln+r-m)} <= q^{2(ln-L+1)} T with
    T = sum_{i<L} q^{2i} (r >= 1), so ln >= log(eps / 2T) / (2 log q) + L - 1
    suffices.  Past PULLBACK_MAX_DIM this is a ValueError naming the N."""
    nfactors = l if parity == "even" else 2 * l
    total = sum(q ** (2 * i) for i in range(nfactors))
    n = max(0, math.ceil((math.log(eps / (2 * total)) / (2 * math.log(q)) + nfactors - 1) / l))
    if n + 1 > PULLBACK_MAX_DIM:
        raise ValueError(f"the pullback proxy needs N >= {n + 1} at q={q}, l={l}, tol={eps}, "
                         f"above the limit {PULLBACK_MAX_DIM}")
    return max(dim, 256, n + 1)


# -- assembled report -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class KReport:
    parity: str
    l: int
    q: float
    dim: int
    tolerance: float
    delta: IndexMap
    stable: bool
    coisometry_max_deviation: float
    smith_diagonal: tuple[int, ...]
    kgroups: KGroups
    expected: KGroups
    cokernel_map_ok: bool
    pullback: dict

    @property
    def all_pass(self) -> bool:
        return (
            self.stable
            and self.coisometry_max_deviation < self.tolerance
            and self.kgroups == self.expected
            and self.cokernel_map_ok
            and bool(self.pullback["all_pass"])
        )

    def as_dict(self) -> dict:
        return {
            "parity": self.parity,
            "l": self.l,
            "q": self.q,
            "N": self.dim,
            "tolerance": self.tolerance,
            "index_map": list(self.delta.entries),
            "index_map_stable": self.stable,
            "coisometry_max_deviation": self.coisometry_max_deviation,
            "smith_diagonal": list(self.smith_diagonal),
            "k0": self.kgroups.k0.as_dict(),
            "k1": self.kgroups.k1.as_dict(),
            "expected_k0": self.expected.k0.as_dict(),
            "expected_k1": self.expected.k1.as_dict(),
            "kgroups_match": self.kgroups == self.expected,
            "cokernel_map_ok": self.cokernel_map_ok,
            "pullback": self.pullback,
            "all_pass": self.all_pass,
        }


def ktheory_report(parity: str, l: int, q: float = 0.5, dim: int = 128,
                   tol: float = 1e-10) -> KReport:
    pullback_dim = _pullback_dim(parity, l, q, dim, tol)
    lifts = coisometry_lift(parity, l, q, dim)
    delta = _defect_ranks(parity, l, lifts)
    stable = index_map(parity, l, q, 2 * dim) == delta
    deviation = max(lift.max_interior_deviation for lift in lifts)
    _, d, _ = smith_normal_form(delta.matrix())
    diag = tuple(d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)))
    groups = assemble_kgroups(delta)
    return KReport(
        parity=parity,
        l=l,
        q=q,
        dim=dim,
        tolerance=tol,
        delta=delta,
        stable=stable,
        coisometry_max_deviation=deviation,
        smith_diagonal=diag,
        kgroups=groups,
        expected=expected_kgroups(parity, l),
        cokernel_map_ok=cokernel_map_check(parity, l),
        pullback=pullback_check(parity, l, q, pullback_dim, eps=tol),
    )
