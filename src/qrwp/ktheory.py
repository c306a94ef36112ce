"""K-theory of the quotient C*-algebras from the relations' integers.

The quotient algebra of either family sits in a short exact sequence
with a sum of l compact ideals and circle functions as quotient.  The
connecting index map sends the quotient unitary's class to the defect
class of a lifted coisometry: per label r the lift is the generator c
divided by the square root of its modulus c* c = prod_m (1 - q^{-2m} a)
(even.4, odd.11).  When that relation's sides are one operator
(fockrep.same_operator), the quotient is the bare shift past the kernel
of c on every column and at every q.  That kernel is read off the
product's integer exponents (fockrep.modulus_kernels): one column in the
even family, two in the odd.  The defect 1 - U*U of the lift projects
onto those columns, so its rank is the kernel size, and no truncation
enters.  The ranks fill an l x 1 integer column delta, whose Smith form
is its gcd; kernel and cokernel of delta, read off gcd(delta), assemble
the K-groups:

    K_1 = ker(delta),    K_0 = coker(delta) (+) Z.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import fockrep
from .fockrep import _MODULUS_RELATION, _check_family, a_exponents, form_weights, modulus_kernels
# not called here; perfbench/tests/test_perfbench.py checks that tracing patches this name too
from .fockrep import rep_generator
from .qlaurent import power_text


class GroupDescriptor(NamedTuple):
    """A finitely generated abelian group: free rank plus torsion orders
    in Smith canonical form (each dividing the next, all > 1)."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __str__(self) -> str:
        parts = [f"Z{t}" for t in self.torsion] + [power_text("Z", self.free_rank)]
        return " (+) ".join(filter(None, parts)) or "0"

    def as_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


class KGroups(NamedTuple):
    k0: GroupDescriptor
    k1: GroupDescriptor


class IndexMap(NamedTuple):
    """The connecting map Z -> Z^l, stored as its column of defect ranks."""

    parity: str
    l: int
    entries: tuple[int, ...]

    @property
    def gcd(self) -> int:
        """The Smith form of the l x 1 column: the gcd of its entries."""
        return math.gcd(*self.entries)


# -- index map and lift --------------------------------------------------


def index_map(parity: str, l: int) -> IndexMap:
    """Defect ranks of the lifted coisometries, one entry per label: the
    number of columns on which c* c vanishes."""
    return IndexMap(parity=parity, l=l,
                    entries=tuple(len(kernel) for kernel in modulus_kernels(parity, l, "c")))


def _lift_exact(parity: str, l: int) -> bool:
    """Whether c (c* c)^{-1/2} is the bare shift past the kernel, on every
    column and at every q: exactly when c* c and the modulus side (even.4,
    odd.11) compose to one operator for every label (fockrep.family_table),
    so that the quotient is 1 on every column."""
    return fockrep.family_table(parity, l).holds(_MODULUS_RELATION[(parity, "c")])


# -- K-group assembly ----------------------------------------------------


def assemble_kgroups(delta: IndexMap) -> KGroups:
    """K_1 = ker(delta) and K_0 = coker(delta) (+) Z.  The Smith form of
    the l x 1 column delta is its gcd g: ker(delta) = Z exactly when
    g = 0, and coker(delta) = Z^{l - [g != 0]} (+) Z_g.  A zero map yields
    K_1 = Z; the result is reported as computed, mismatches are the
    caller's check."""
    g = delta.gcd
    k1 = GroupDescriptor(free_rank=0 if g else 1)
    k0 = GroupDescriptor(free_rank=delta.l - (1 if g else 0) + 1, torsion=(g,) if g > 1 else ())
    return KGroups(k0=k0, k1=k1)


def expected_kgroups(parity: str, l: int) -> KGroups:
    """The closed-form answers: Z^l (even) or Z2 (+) Z^l (odd), with
    vanishing K_1 in both families."""
    if parity == "even":
        return KGroups(k0=GroupDescriptor(l), k1=GroupDescriptor(0))
    if parity == "odd":
        return KGroups(k0=GroupDescriptor(l, (2,)), k1=GroupDescriptor(0))
    raise ValueError(f"unknown parity {parity!r}")


def _cokernel_map_ok(delta: IndexMap) -> bool:
    """Whether the candidate map

        even: (n_1,..,n_l) -> (n_2 - n_1, ..., n_l - n_1)
        odd:  (n_1,..,n_l) -> (n_1 mod 2, n_2 - n_1, ..., n_l - n_1)

    induces coker(delta) = Z^l / Z delta  ~=  Z^{l-1} (even) or
    Z2 (+) Z^{l-1} (odd); tests/helpers.py::cokernel_map_check is its
    brute-force oracle.

    The candidate map phi is onto: (0, d_2, .., d_l) hits (d_2, .., d_l),
    and in the odd family (e, e + d_2, .., e + d_l) hits (e, d_2, .., d_l).
    Its kernel is Z (s, .., s) with s = 1 (even) or s = 2 (odd): all
    differences vanish, and odd also needs n_1 even.  So phi induces an
    isomorphism on coker(delta) exactly when Z delta = ker(phi), that is
    when delta = +-(s, .., s), and that takes O(l) to check."""
    s = 1 if delta.parity == "even" else 2
    return delta.entries in ((s,) * delta.l, (-s,) * delta.l)


# -- pullback consistency -------------------------------------------------


def pullback_check(parity: str, l: int, q: float = 0.5, eps: float = 1e-10) -> dict:
    """Compactness of c - shift in the symbol-map picture, read off c's
    weight form (k, h, S) in fockrep.generator_form, with no truncation.

    Per label r the nonzero entries of c - shift are the weight defects
    1 - w_n.  Past the kernel (n >= k) each factor 1 - q^{2s + x_n} lies
    in (0, 1) and grows with n, so when h = 0 the defects decrease to 0
    for every q < 1; otherwise w_n tends to 0 and no label passes.  n0 is
    the first column n >= k whose defect is below eps, and tail_max is
    the defect there.  The report gives |w_r - w_s| at the largest n0,
    and N = n0_max + 1, the truncation that a dense proxy would need.

    Each label bisects the integer bracket (lo, hi].  It starts from
    lo = k - 1, so it evaluates no kernel column, and from hi at the
    closed-form bound (L = |S|)

        1 - w_n <= sum_{s in S} q^{2s + x_n} <= q^{2(ln-L+1)} sum_{i<L} q^{2i}

    taken at min(eps, 2^-54): there every factor is below 2^-55, each
    radicand rounds to 1, and the computed defect is exactly 0.  The bound
    is largest at q = 1 - 2^-53 and eps = 5e-324, where l hi is about
    2^52 (744.4 + ln 2L), 3.4e18 for every l below 10^9.  The exponents
    2(ln + r) reach 2^63 only when ln 2L exceeds 279, which no factor
    tuple can hold, and they are Python ints in any case.

    So every verdict is h == 0.  The search stops on a column whose
    defect is below eps, so each tail_max is below eps, and at the
    largest n0, past every label's stop, each weight lies in (1 - eps, 1].
    For eps <= 1/2, |w_r - w_s| is then exact by Sterbenz's lemma and at
    most the larger defect, below 2 eps; for eps > 1/2 the difference of
    two weights in [0, 1] is at most 1, also below 2 eps."""
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be finite and positive")
    _check_family(parity, l, q)
    form = fockrep.generator_form(parity, l, "c")  # the one table every check reads
    k, nfactors, decays = form.offset, len(form.factors), form.h == 0
    top = k
    if decays:
        total = sum(q ** (2 * i) for i in range(nfactors))
        bound = (math.log(min(eps, 2.0 ** -54)) - math.log(2 * total)) / (2 * math.log(q)) + nfactors - 1
        top = max(k, math.ceil(bound / l))
    labels = range(1, l + 1)
    n0s = []
    for r in labels:
        lo, hi = k - 1, top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            # the defects decrease, so the columns at or above eps come first
            if 1.0 - form_weights(form, q, a_exponents(l, r, mid)) >= eps:
                lo = mid
            else:
                hi = mid
        n0s.append(hi)
    n0_max = max(n0s)
    tails = [1.0 - form_weights(form, q, a_exponents(l, r, n0)) if decays else 1.0 for r, n0 in zip(labels, n0s)]
    last = [form_weights(form, q, a_exponents(l, r, n0_max)) for r in labels]
    per_r = [{"r": r, "monotone_decay": decays, "n0": n0 if decays else None, "tail_max": tail, "pass": decays}
             for r, n0, tail in zip(labels, n0s, tails)]
    pairwise = [{"r": r, "s": s, "tail_max": abs(last[r - 1] - last[s - 1]), "pass": decays}
                for r, s in itertools.combinations(labels, 2)]
    return {
        "parity": parity,
        "l": l,
        "q": q,
        "N": n0_max + 1,
        "epsilon": eps,
        "per_r": per_r,
        "pairwise": pairwise,
        "all_pass": decays,
    }


# -- assembled report -------------------------------------------------------


class KReport(NamedTuple):
    parity: str
    l: int
    q: float
    dim: int
    tolerance: float
    delta: IndexMap
    lift_exact: bool
    smith_diagonal: tuple[int, ...]
    kgroups: KGroups
    expected: KGroups
    cokernel_map_ok: bool
    pullback: dict

    @property
    def all_pass(self) -> bool:
        return (
            self.lift_exact  # exact: tolerance is only the pullback's eps
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
            "index_map_stable": True,  # the map reads no truncation, so doubling N cannot move it
            "coisometry_max_deviation": 0.0 if self.lift_exact else 1.0,
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
    """The K-theory checks; dim is only echoed as N, since nothing here
    reads a truncation."""
    delta = index_map(parity, l)
    groups = assemble_kgroups(delta)
    return KReport(
        parity=parity,
        l=l,
        q=q,
        dim=dim,
        tolerance=tol,
        delta=delta,
        lift_exact=_lift_exact(parity, l),
        smith_diagonal=(delta.gcd,),
        kgroups=groups,
        expected=expected_kgroups(parity, l),
        cokernel_map_ok=_cokernel_map_ok(delta),
        pullback=pullback_check(parity, l, q, eps=tol),
    )
