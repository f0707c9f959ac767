"""Shared test utilities: independent oracles and random input generators.

The oracles here deliberately avoid the code paths they are used to check:
rank is recomputed with plain Fraction Gaussian elimination after
specializing s, the exterior differential is evaluated through the full
alternating sum over basis tuples, forms are evaluated as determinants, and
the Hodge star pairs basis forms through minors of the inverse Gram matrix.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from nilfol.exactalg import (
    ONE,
    S,
    ZERO,
    Scalar,
    ScalarMatrix,
    Subspace,
    rref,
    unit_vector,
    vec,
    vec_add,
    vec_scale,
    zero_vector,
)
from nilfol.geometry import Metric
from nilfol.invforms import InvForm, multi_indices
from nilfol.liealg import LeafSubalgebra, LieAlgebra


# -- independent rank oracle over Q --------------------------------------

def frac_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    if not rows:
        return 0
    ncols = len(rows[0])
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for i in range(len(rows)):
            if i == rank or rows[i][c] == 0:
                continue
            f = rows[i][c] / p
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def specialize_matrix_rank(m: ScalarMatrix, sigma: Fraction) -> int:
    return frac_rank(m.evaluate(sigma))


# -- sympy rank oracle ---------------------------------------------------------

def sympy_rank(m: ScalarMatrix) -> int:
    """Rank of m from sympy's DomainMatrix over QQ or QQ(s); callers skip
    the test first when sympy is missing."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    s = sympy.Symbol("s")
    rational = all(e.is_rational for row in m.entries for e in row)
    domain = sympy.QQ if rational else sympy.QQ.frac_field(s)

    def convert(x: Scalar):
        num, den = (sum(sympy.Rational(c.numerator, c.denominator) * s**i
                        for i, c in enumerate(cs)) for cs in (x.num, x.den))
        return domain.from_sympy(num / den)

    return DomainMatrix([[convert(e) for e in row] for row in m.entries],
                        (m.rows, m.cols), domain).rank()


# -- reference kernel and intersection -----------------------------------------

def two_pass_kernel(m: ScalarMatrix) -> Subspace:
    """Null space of m the two-pass way: one vector per free column of
    rref(m), which is not in RREF, then reduced again by ``Subspace``."""
    result = rref(m)
    basis = []
    for f in range(m.cols):
        if f in result.pivots:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in enumerate(result.pivots):
            v[p] = -result.reduced.entries[r][f]
        basis.append(tuple(v))
    return Subspace(m.cols, basis)


def kernel_intersection(a: Subspace, b: Subspace) -> Subspace:
    """A ∩ B from the solutions of A^T u = B^T w: v = u^T A lies in both
    spans.  A kernel, a recombination and a re-reduction."""
    n, ra, rb = a.ambient_dim, a.dim, b.dim
    if ra == 0 or rb == 0:
        return Subspace(n, [])
    columns = [[a.basis[r][i] for r in range(ra)] + [-b.basis[r][i] for r in range(rb)]
               for i in range(n)]
    vectors = []
    for sol in two_pass_kernel(ScalarMatrix(columns)).basis:
        v = zero_vector(n)
        for r in range(ra):
            v = vec_add(v, vec_scale(sol[r], a.basis[r]))
        vectors.append(v)
    return Subspace(n, vectors)


def is_rref_basis(basis) -> bool:
    """Leading entries 1, in strictly increasing columns, and every other
    vector zero in each leading column."""
    leads = [next((j for j, e in enumerate(v) if not e.is_zero), None) for v in basis]
    if None in leads or leads != sorted(set(leads)):
        return False
    return all(v[c] == (ONE if i == k else ZERO)
               for k, c in enumerate(leads) for i, v in enumerate(basis))


# -- reference basis extension -----------------------------------------------

def greedy_extend(base: Subspace, candidates) -> list:
    """Scan the candidates in order and keep each one outside the span of
    ``base`` and the candidates kept so far, re-spanning after each one."""
    chosen = []
    current = base
    for v in candidates:
        if current.contains_vector(v):
            continue
        chosen.append(v)
        current = current.sum(Subspace(base.ambient_dim, [v]))
    return chosen


# -- reference polynomial gcd ------------------------------------------------

def euclid_gcd(a, b) -> tuple:
    """Monic gcd of two coefficient tuples (constant term first) by Euclid's
    algorithm with Fraction coefficients; () if both are zero."""
    a = _frac_trim(a)
    b = _frac_trim(b)
    while b:
        rem = list(a)
        while len(rem) >= len(b):
            q = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            for i, c in enumerate(b):
                rem[shift + i] -= q * c
            rem = list(_frac_trim(rem[:-1]))
        a, b = b, tuple(rem)
    return tuple(c / a[-1] for c in a) if a else ()


def _frac_trim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def random_poly(rng: random.Random, max_deg: int, span: int = 9) -> tuple:
    """Nonzero coefficient tuple of degree at most max_deg."""
    cs = [Fraction(rng.randint(-span, span), rng.randint(1, 6))
          for _ in range(rng.randint(1, max_deg + 1))]
    if not cs[-1]:
        cs[-1] = Fraction(1)
    return tuple(cs)


# -- specialization of whole structures ----------------------------------

def specialize_scalar(x: Scalar, sigma) -> Scalar:
    return Scalar.from_fraction(x.evaluate(Fraction(sigma)))


def specialize_vector(v, sigma):
    return tuple(specialize_scalar(x, sigma) for x in v)


def specialize_algebra(g: LieAlgebra, sigma) -> LieAlgebra:
    tensor = [[specialize_vector(g.c[i][j], sigma) for j in range(g.n)] for i in range(g.n)]
    return LieAlgebra.from_structure_tensor(tensor, basis_names=g.basis_names)


# -- independent form evaluation and exterior derivative ------------------

def eval_form(form: InvForm, vectors) -> Scalar:
    """Evaluate a k-form on k vectors via the determinant of coordinates."""
    k = form.degree
    assert len(vectors) == k
    if k == 0:
        return form.coeffs.get((), ZERO)
    total = ZERO
    for idx, coeff in form.coeffs.items():
        # det of the k x k matrix of the selected coordinates
        det = ZERO
        for perm in itertools.permutations(range(k)):
            sign = _perm_sign(perm)
            prod = ONE
            for a in range(k):
                prod = prod * vectors[a][idx[perm[a]]]
                if prod.is_zero:
                    break
            det = det + prod if sign > 0 else det - prod
        total = total + coeff * det
    return total


def _perm_sign(perm) -> int:
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def d_oracle(g: LieAlgebra, form: InvForm) -> InvForm:
    """(d w)(v_0..v_k) = sum_{a<b} (-1)^(a+b) w([v_a,v_b], ..others..)."""
    n, k = g.n, form.degree
    coeffs = {}
    for J in itertools.combinations(range(n), k + 1):
        total = ZERO
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                rest = tuple(J[t] for t in range(k + 1) if t != a and t != b)
                w = g.bracket(unit_vector(n, J[a]), unit_vector(n, J[b]))
                val = ZERO
                for m in range(n):
                    if w[m].is_zero:
                        continue
                    args = [unit_vector(n, m)] + [unit_vector(n, r) for r in rest]
                    val = val + w[m] * eval_form(form, args)
                total = total + val if (a + b) % 2 == 0 else total - val
        if not total.is_zero:
            coeffs[J] = total
    return InvForm(n, k + 1, coeffs)


# -- reference Hodge star by inverse-Gram minors -----------------------------

def _complement_sign(idx: tuple[int, ...], n: int) -> tuple[int, tuple[int, ...]]:
    comp = tuple(i for i in range(n) if i not in idx)
    perm = idx + comp
    inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                     if perm[a] > perm[b])
    return (-1 if inversions % 2 else 1), comp


def hodge_star(metric: Metric, form: InvForm) -> InvForm:
    """Hodge star without the constant sqrt(det G) normalization.

    Characterized by  a ^ star(b) = <a, b> e^{1..n}  where the pairing of
    basis forms is the minor determinant of the inverse Gram matrix.
    Sufficient for every zero-test downstream; not an isometry.
    """
    n = metric.n
    if form.n != n:
        raise ValueError("form dimension mismatch")
    k = form.degree
    ginv = metric.inverse()
    out: dict[tuple[int, ...], Scalar] = {}
    for idx in multi_indices(n, k):
        val = ZERO
        for jdx, coeff in form.coeffs.items():
            minor = ScalarMatrix([[ginv.entries[i][j] for j in jdx] for i in idx])
            det = minor.det() if k else ONE
            if not det.is_zero:
                val = val + coeff * det
        if val.is_zero:
            continue
        sign, comp = _complement_sign(idx, n)
        out[comp] = out.get(comp, ZERO) + (val if sign > 0 else -val)
    return InvForm(n, n - k, out)


def characteristic_form(leaf: LeafSubalgebra, metric: Metric) -> InvForm:
    """Wedge of the flats of a leaf basis (constant rescaling of the usual
    characteristic form; the constant is irrelevant for zero-tests)."""
    chi = InvForm.constant(metric.n, ONE)
    for v in leaf.space.basis:
        chi = chi.wedge(metric.flat(v))
    return chi


# -- random generators -----------------------------------------------------

def random_fraction(rng: random.Random, span: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_scalar(rng: random.Random, max_deg: int = 2, allow_denominator: bool = True) -> Scalar:
    num = [random_fraction(rng) for _ in range(rng.randint(1, max_deg + 1))]
    if allow_denominator and rng.random() < 0.4:
        den = [random_fraction(rng) for _ in range(rng.randint(1, max_deg + 1))]
        if not any(den):
            den[-1] = Fraction(1)
        return Scalar(num, den)
    return Scalar(num)


def random_nonzero_scalar(rng: random.Random, **kw) -> Scalar:
    while True:
        x = random_scalar(rng, **kw)
        if not x.is_zero:
            return x


def random_matrix(rng: random.Random, rows: int, cols: int, **kw) -> ScalarMatrix:
    return ScalarMatrix([[random_scalar(rng, **kw) for _ in range(cols)] for _ in range(rows)])


def random_vector(rng: random.Random, n: int, rational=False):
    if rational:
        return vec([random_fraction(rng) for _ in range(n)])
    return tuple(random_scalar(rng) for _ in range(n))


def random_two_step_algebra(rng: random.Random, with_s: bool = True) -> LieAlgebra:
    """Random 2-step nilpotent algebra: [V,V] lands in a central slice.

    All double brackets vanish, so the Jacobi identity holds for any choice
    of the bracket coefficients.
    """
    nv = rng.randint(2, 4)
    nz = rng.randint(1, 2)
    n = nv + nz
    brackets = {}
    for i in range(nv):
        for j in range(i + 1, nv):
            value = {}
            for m in range(nv, n):
                if rng.random() < 0.6:
                    c = Scalar.from_fraction(random_fraction(rng))
                    if with_s and rng.random() < 0.5:
                        c = c + S * Scalar.from_fraction(random_fraction(rng))
                    if not c.is_zero:
                        value[m] = c
            if value:
                brackets[(i, j)] = value
    return LieAlgebra(n, brackets)


def random_basis_change(rng: random.Random, g: LieAlgebra, with_s: bool = False) -> LieAlgebra:
    """Conjugate the structure tensor by a random invertible matrix."""
    n = g.n
    while True:
        entries = [[Scalar.from_fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if with_s:
            i, j = rng.randrange(n), rng.randrange(n)
            entries[i][j] = entries[i][j] + S
        P = ScalarMatrix(entries)
        if not P.det().is_zero:
            break
    Pinv = P.inverse()
    tensor = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w = g.bracket(P.column(i), P.column(j))
            tensor[i][j] = Pinv.apply(w)
    return LieAlgebra.from_structure_tensor(tensor)


def random_form(rng: random.Random, n: int, k: int, terms: int = 3) -> InvForm:
    combos = list(itertools.combinations(range(n), k))
    coeffs = {}
    for _ in range(min(terms, len(combos))):
        idx = combos[rng.randrange(len(combos))]
        coeffs[idx] = random_scalar(rng)
    return InvForm(n, k, coeffs)


def random_subalgebra(rng: random.Random, g: LieAlgebra) -> Subspace:
    seed_vectors = [random_vector(rng, g.n) for _ in range(rng.randint(1, 2))]
    space = Subspace(g.n, [v for v in seed_vectors if not all(x.is_zero for x in v)])
    return g.bracket_closure(space)
