"""Shared randomized-input generators and dense oracles for the test suite.

All randomized suites use SEED so failures reproduce exactly.
"""

import cmath
import functools
import itertools
import math
import random
from collections import Counter

import numpy as np

from qrwp import AlgebraElement, LaurentPoly, NormalMonomial, Weights, degree, generators, powers_oracle, qpow
from qrwp import fockrep

SEED = 31415926


def make_rng(offset: int = 0) -> random.Random:
    return random.Random(SEED + offset)


def random_laurent(rng: random.Random, max_exp: int = 8, max_coeff: int = 9,
                   max_terms: int = 3) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randint(-max_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(terms)


def random_nonzero_laurent(rng: random.Random, **kw) -> LaurentPoly:
    while True:
        p = random_laurent(rng, **kw)
        if not p.is_zero():
            return p


def random_monomial(rng: random.Random, m_max: int = 3, p_max: int = 3,
                    r_max: int = 3) -> NormalMonomial:
    return NormalMonomial(rng.randint(-m_max, m_max), rng.randint(0, p_max),
                          rng.randint(-r_max, r_max))


def random_basis_element(rng: random.Random, **kw) -> AlgebraElement:
    mono = random_monomial(rng, **kw)
    return AlgebraElement.monomial(mono.m, mono.p, mono.r)


def random_element(rng: random.Random, max_terms: int = 4, **coeff_kw) -> AlgebraElement:
    coeff_kw.setdefault("max_exp", 4)
    out = AlgebraElement.zero()
    for _ in range(rng.randint(1, max_terms)):
        mono = random_monomial(rng)
        out = out + AlgebraElement({mono: random_nonzero_laurent(rng, **coeff_kw)})
    return out


# -- reference renderer ------------------------------------------------------


def _power(name: str, e: int) -> str:
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def _coefficient(mag: int, e: int) -> str:
    qpart = _power("q", e)
    return qpart if mag == 1 and qpart else f"{mag}{qpart}"


def _signed_sum(terms) -> str:
    pieces = []
    for neg, text in terms:
        if pieces:
            pieces.append(f"- {text}" if neg else f"+ {text}")
        else:
            pieces.append(f"-{text}" if neg else text)
    return " ".join(pieces) or "0"


def _word(mono: NormalMonomial) -> str:
    parts = (_power("z0" if mono.m > 0 else "z0s", abs(mono.m)), _power("z1", mono.p), _power("xi", mono.r))
    return " ".join(filter(None, parts))


def _term(mono: NormalMonomial, coef: LaurentPoly) -> tuple[bool, str]:
    items = coef.items_sorted()
    word = _word(mono)
    if len(items) > 1:
        neg, coef_txt = False, f"({reference_text(coef)})"
    else:
        (e, c), = items
        neg = c < 0
        coef_txt = "" if abs(c) == 1 and e == 0 and word else _coefficient(abs(c), e)
    return neg, " ".join(filter(None, (coef_txt, word)))


def reference_text(x) -> str:
    """Text of a LaurentPoly or AlgebraElement, term by term from the
    rendering rules, independently of qrwp's formatter."""
    if isinstance(x, LaurentPoly):
        return _signed_sum((c < 0, _coefficient(abs(c), e)) for e, c in x.items_sorted())
    return _signed_sum(_term(mono, coef) for mono, coef in x.terms())


# -- product oracle ------------------------------------------------------------


def _poly_product(x: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    """x * y term by term, without LaurentPoly's product."""
    out = Counter()
    for e1, c1 in x.items_sorted():
        for e2, c2 in y.items_sorted():
            out[e1 + e2] += c1 * c2
    return LaurentPoly(out)


def word_product_oracle(w1: NormalMonomial, w2: NormalMonomial) -> AlgebraElement:
    """w1 * w2 from the defining rules, independently of AlgebraElement's
    product: z1^p1 moves past z0^m2 at a cost of q^(-p1 m2) (xi is
    central), a z0/z0* meet is the closed form powers_oracle, and
    z1^p xi^r, p = p1 + p2 and r = r1 + r2, is appended to each of its
    words."""
    (m1, p1, r1), (m2, p2, r2) = w1, w2
    if m1 > 0 > m2:
        z0_part = powers_oracle(m1, -m2).terms()
    elif m2 > 0 > m1:
        z0_part = powers_oracle(m2, -m1, conjugate_first=True).terms()
    else:
        z0_part = [(NormalMonomial(m1 + m2, 0, 0), LaurentPoly({0: 1}))]
    cost = LaurentPoly({-p1 * m2: 1})
    return AlgebraElement({NormalMonomial(m, p + p1 + p2, r + r1 + r2): _poly_product(coef, cost)
                           for (m, p, r), coef in z0_part})


def product_oracle(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """x * y as the sum over term pairs of c1 c2 word_product_oracle(w1, w2)."""
    total: dict[NormalMonomial, LaurentPoly] = {}
    for w1, c1 in x.terms():
        for w2, c2 in y.terms():
            for mono, coef in word_product_oracle(w1, w2).terms():
                total[mono] = total.get(mono, LaurentPoly()) + _poly_product(_poly_product(c1, c2), coef)
    return AlgebraElement(total)


# -- expanded relation sides ---------------------------------------------------


def eval_side(side, gens) -> AlgebraElement:
    """One relation side (a qwrp.RelationSide) as a normal form, by
    multiplying its factors out with AlgebraElement's product: the oracle
    for the factored route of qwrp.verify_relations.  A run
    prod_e (1 - q^{2e} a), a = z1^2 xi, is multiplied in one linear
    factor at a time, not through the engine's run expansion."""
    out = AlgebraElement.scalar(qpow(side.q_exponent))
    for f in side.factors:
        if f[0] == "gen":
            g = gens.named(f[1])
            out = out * (g.star() if f[2] else g)
        else:
            out = out * _linear_factors(f[1])
    return out


@functools.lru_cache(maxsize=None)
def _linear_factors(exponents: tuple[int, ...]) -> AlgebraElement:
    """prod_e (1 - q^{2e} a), a = z1^2 xi, multiplied out one linear
    factor at a time.  Cached by prefix, since many relation sides share
    a run or its start."""
    one = AlgebraElement.one()
    if not exponents:
        return one
    return _linear_factors(exponents[:-1]) * (one - AlgebraElement.monomial(0, 2, 1, qpow(2 * exponents[-1])))


# -- brute-force scan of the degree-zero box --------------------------------


def degree_zero_scan(w: Weights, m_max: int, p_max: int, r_max: int) -> list[NormalMonomial]:
    """The degree-zero words of the box by testing every (m, p, r) in it."""
    out = []
    for m in range(m_max + 1):
        for p in range(p_max + 1):
            for r in range(-r_max, r_max + 1):
                mono = NormalMonomial(m, p, r)
                if degree(w, mono) == 0:
                    out.append(mono)
    return out


# -- counting products -------------------------------------------------------


def power_product_count(n: int) -> int:
    """Products square-and-multiply needs for x ** n, n >= 1: one squaring
    per bit below the top one, one multiply per set bit after the first."""
    return n.bit_length() - 1 + n.bit_count() - 1


def count_products(monkeypatch, cls) -> list:
    """Patch cls.__mul__ to log each call; the returned list grows by one per product."""
    calls = []
    original = cls.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    return calls


# -- dense oracle for the weighted-shift operators ---------------------------


def dense(op) -> np.ndarray:
    """The dense N x N matrix of a fockrep.WeightedShift: M[i, i + offset]
    = weights[i], with the entries whose column lies outside 0..N-1 left
    out."""
    dim = len(op.weights)
    rows = np.arange(dim)
    keep = (rows + op.offset >= 0) & (rows + op.offset < dim)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[rows[keep], rows[keep] + op.offset] = np.asarray(op.weights)[keep]
    return mat


def array_form_weights(form, q: float, x: np.ndarray, q_exponent: int = 0) -> np.ndarray:
    """fockrep.form_weights vectorised over an array of a-exponents x, with
    numpy's power: the independent oracle of the scalar evaluation.  An
    overflow reads inf (under np.errstate, a warning otherwise)."""
    acc = 1.0
    for s, count in Counter(form.factors).items():
        radicand = 1.0 - q ** (2 * s + x)
        if count % 2:
            if np.any(radicand < 0.0):
                raise ArithmeticError(f"negative radicand 1 - q^{int(np.min(2 * s + x))} in shift weight")
            acc = acc * np.sqrt(radicand)
        if count > 1:
            acc = acc * radicand ** (count // 2)
    return q ** (q_exponent + form.h * x // 2) * acc


def array_relation_residual(lhs, rhs, q: float, l: int, r: int, interior: int) -> float:
    """The residual of a failing relation for label r, from its composed
    sides on numpy arrays: the largest difference of the sides' entries on
    the interior columns, in the rows where both sides reach every column;
    an overflow reads inf."""
    first = max(lhs.lowest, rhs.lowest)
    with np.errstate(over="ignore", invalid="ignore"):
        left, right = (array_form_weights(f, q, fockrep.a_exponents(l, r, np.arange(first + f.offset, interior)),
                                          f.q_exponent) for f in (lhs, rhs))
        diff = left - right if lhs.offset == rhs.offset else np.concatenate((left, right))
    return float(np.max(np.abs(diff), initial=0.0))


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


def rep_sigma(mono, q: float, dim: int):
    """The ambient representation of one basis word (z0 family only)."""
    form = fockrep.ambient_form(mono)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    return fockrep._weighted_shift(form, q, 1, 1, dim)


def faithfulness_probe(monomials, q: float = 0.5, dim: int = 128, tol: float = 1e-8) -> bool:
    """True when the truncated images are linearly independent; the
    dense test oracle of fockrep.words_independent.

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
        v = dense(rep_sigma(mono, q, dim)).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return False
        rows.append(v / norm)
    svals = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(svals > tol * svals[0])) == len(monomials)


def dense_side(side, mats, q: float) -> np.ndarray:
    """One relation side evaluated on dense matrices with np.eye and @,
    independently of the composition on the weight table in qrwp.fockrep."""
    dim = mats["a"].shape[0]
    eye = np.eye(dim, dtype=np.complex128)
    out = (q ** side.q_exponent) * eye
    for f in side.factors:
        if f[0] == "gen":
            mat = mats[f[1]]
            out = out @ (mat.conj().T if f[2] else mat)
        else:
            for e in f[1]:
                out = out @ (eye - (q ** (2 * e)) * mats["a"])
    return out


def dense_interior_max(diff: np.ndarray, cols: int) -> float:
    """Max |entry| of a dense matrix over its first cols columns."""
    cols = max(0, min(cols, diff.shape[1]))
    return float(np.max(np.abs(diff[:, :cols]))) if cols else 0.0


def dense_kernel_dim(mat: np.ndarray, tol: float) -> int:
    """Kernel dimension of a dense matrix: its columns minus the singular
    values above tol."""
    return mat.shape[1] - int(np.sum(np.linalg.svd(mat, compute_uv=False) > tol))


def array_words_independent(monomials, dim: int) -> bool:
    """fockrep.words_independent with the columns counted on numpy arrays:
    per offset, the a-exponents x_n = 2(n + 1) of the columns offset <= n
    < N that no factor s of any word on that offset zeroes (x_n != -2s)."""
    blocks = {}
    for mono in monomials:
        form = fockrep.ambient_form(mono)
        blocks.setdefault(form.offset, []).append(form)
    for offset, forms in blocks.items():
        x = fockrep.a_exponents(1, 1, np.arange(offset, dim))
        columns = np.count_nonzero(~np.isin(x, [-2 * s for form in forms for s in form.factors]))
        if len({form.h for form in forms}) < len(forms) or len(forms) > columns:
            return False
    return True


def kernel_columns(parity: str, l: int, r: int, q: float, dim: int, gen: str) -> tuple[np.ndarray, int]:
    """The diagonal of g* g on e_0..e_{N-1} for label r, and its run of
    leading exact zeros: the modulus relation's right side evaluated in
    floats, the numeric oracle of fockrep.modulus_kernels.  The side holds
    a (in odd.7) and factors (1 - q^{2e} a), each evaluated from its
    integer exponent.
    At tiny q a kernel column's factor overflows to -inf, and the column's
    exact zero factor wins over it.  The factor a underflows to 0.0 deep in
    the tail, so later zeros do not count."""
    rid = fockrep._modulus_rid(parity, gen)
    side = next(rel for rel in fockrep.relations_for(parity, l) if rel.rid == rid).rhs
    x = fockrep.a_exponents(l, r, np.arange(dim))
    diag = np.full(dim, q ** side.q_exponent)
    for f in side.factors:
        if f[0] == "gen":
            # only a, which is diagonal
            factors = [np.asarray(fockrep.rep_generator(parity, l, r, q, dim, f[1]).weights)]
        else:
            with np.errstate(over="ignore"):
                factors = [1.0 - q ** (2 * e + x) for e in f[1]]
        for factor in factors:
            out = np.zeros(dim)
            np.multiply(diag, factor, out=out, where=(diag != 0) & (factor != 0))
            diag = out
    nonzero = np.flatnonzero(diag)
    return diag, int(nonzero[0]) if nonzero.size else diag.size


def scalar_relation_residual(parity: str, l: int, theta: float, q: float = 0.5) -> float:
    """Max residual of the relation set in the one-dimensional
    representation at c = e^{2 pi i theta}, the float oracle of
    fockrep.scalar_relations_exact: a = 0 makes every product factor equal
    1, so a side is its q-power times the generator values, conjugated
    where starred.  A side with a or b in it is 0, and its q-power is
    never evaluated."""
    # Python complex arithmetic: numpy's vectorised complex product may be
    # fused and leave an imaginary residue of ~1e-18 in c c* = 1.
    values = rep_scalar(theta, parity)

    def value(side) -> complex:
        out = 1.0
        for f in side.factors:
            if f[0] == "gen":
                out *= values[f[1]].conjugate() if f[2] else values[f[1]]
        return out * q ** side.q_exponent if out else out

    return max(abs(value(rel.lhs) - value(rel.rhs)) for rel in fockrep.relations_for(parity, l))


def dense_intertwiner_error(parity: str, l: int, q: float, dim: int) -> dict[str, float]:
    """Per generator g, the largest relative difference of the dense
    Phi_r pi_r(g) and pi(j(g)) Phi_r over the labels r, on the small-side
    columns n whose image ln+r-1 lies in the N - 2l interior columns:
    the oracle of fockrep.intertwiner_check.  Phi_r is the 0/1 matrix of
    e_n -> e_{ln+r-1} from span{e_0..e_{N//l - 1}} into span{e_0..e_{N-1}}."""
    gens = generators(Weights.canonical(parity, l))
    small = dim // l
    errors = {}
    for name in ("a", "c") if parity == "even" else ("a", "b", "c"):
        big = dense(rep_sigma(gens.named(name).sole_monomial(), q, dim))
        worst = 0.0
        for r in range(1, l + 1):
            phi = np.zeros((dim, small))
            phi[l * np.arange(small) + r - 1, np.arange(small)] = 1.0
            cols = np.flatnonzero(l * np.arange(small) + r - 1 < dim - 2 * l)
            here = (phi @ dense(fockrep.rep_generator(parity, l, r, q, small, name)))[:, cols]
            there = (big @ phi)[:, cols]
            scale = np.maximum(np.maximum(np.abs(here), np.abs(there)), np.finfo(float).tiny)
            worst = max(worst, float(np.max(np.abs(here - there) / scale, initial=0.0)))
        errors[name] = worst
    return errors


# -- brute-force cokernel map ------------------------------------------------


def cokernel_map_check(parity: str, l: int, box: int = 3) -> bool:
    """Validate the explicit cokernel isomorphism by finite enumeration.

    Vectors in [-box, box]^l are grouped into cosets of the image of
    the index map (steps along the constant vector (1,..,1) or
    (2,..,2)); the candidate map

        even: (n_1,..,n_l) -> (n_2 - n_1, ..., n_l - n_1)
        odd:  (n_1,..,n_l) -> (n_1 mod 2, n_2 - n_1, ..., n_l - n_1)

    must be constant on each coset and distinct across cosets.  This is
    the oracle of ktheory._cokernel_map_ok, which reads the verdict off
    the computed index map instead."""
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
