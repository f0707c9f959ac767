"""Left-invariant metric geometry: Levi-Civita connection, mean curvature
of the leaf foliation, bundle-like and coclosedness checks.

Nothing here takes a square root.  Orthonormalization is avoided by
routing every formula through Gram-matrix inverses, and the coclosedness
check contracts e^{1..n} instead of the volume form sqrt(det G) e^{1..n}
(see ``coclosed_check`` for why that changes no zero-test).

Positive-definiteness of a Gram matrix over Q(s) is not decidable
per-parameter without real-algebraic machinery; the module computes the
leading principal minors exactly and reports their signs at a caller
supplied rational sample value of s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    ONE,
    Scalar,
    ScalarMatrix,
    Subspace,
    Vector,
    ZERO,
    bilinear,
    kernel,
    vec,
    vec_add,
    vec_scale,
    unit_vector,
    zero_vector,
)
from .invforms import InvForm, ce_d
from .liealg import LeafSubalgebra, LieAlgebra


class Metric:
    """Invariant metric given by the Gram matrix of the chosen frame."""

    __slots__ = ("gram", "_inverse")

    def __init__(self, gram: ScalarMatrix):
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_inverse", None)

    def __setattr__(self, name, value):
        raise AttributeError("Metric is immutable")

    @classmethod
    def identity(cls, n: int) -> "Metric":
        return cls(ScalarMatrix.identity(n))

    @property
    def n(self) -> int:
        return self.gram.rows

    def inverse(self) -> ScalarMatrix:
        if self._inverse is None:
            try:
                inv = self.gram.inverse()
            except ValueError:
                raise ValueError("singular Gram matrix") from None
            object.__setattr__(self, "_inverse", inv)
        return self._inverse

    def pairing(self, x: Vector, y: Vector) -> Scalar:
        gx = self.gram.apply(vec(x))
        return sum((a * b for a, b in zip(gx, vec(y))), ZERO)

    def flat(self, x: Vector) -> InvForm:
        """The 1-form g(x, .)."""
        gx = self.gram.apply(vec(x))
        return InvForm(self.n, 1, {(i,): c for i, c in enumerate(gx) if not c.is_zero})

    def sharp(self, alpha: InvForm) -> Vector:
        if alpha.degree != 1:
            raise ValueError("sharp takes a 1-form")
        coords = tuple([alpha.coefficient((i,)) for i in range(self.n)])
        return self.inverse().apply(coords)

    def leading_minors(self) -> list[Scalar]:
        out = []
        for k in range(1, self.n + 1):
            sub = ScalarMatrix([row[:k] for row in self.gram.entries[:k]])
            out.append(sub.det())
        return out

    def sample_signature(self, sigma: Fraction) -> "MetricSampleReport":
        """Signs of the leading principal minors at s = sigma."""
        signs = []
        for minor in self.leading_minors():
            value = minor.evaluate(sigma)
            signs.append(1 if value > 0 else (-1 if value < 0 else 0))
        return MetricSampleReport(Fraction(sigma), tuple(signs), all(s > 0 for s in signs))


@dataclass(frozen=True)
class MetricSampleReport:
    sample: Fraction
    minor_signs: tuple[int, ...]
    positive_definite: bool


class Connection:
    """Coefficients nabla_{e_i} e_j of an invariant affine connection."""

    __slots__ = ("n", "coeffs")

    def __init__(self, coeffs):
        grid = tuple(tuple(vec(v) for v in row) for row in coeffs)
        object.__setattr__(self, "n", len(grid))
        object.__setattr__(self, "coeffs", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Connection is immutable")

    def nabla(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension, valid for invariant (constant) fields."""
        return bilinear(self.coeffs, vec(x), vec(y))


def levi_civita(g: LieAlgebra, metric: Metric) -> Connection:
    """Koszul formula for invariant fields:
    2 g(nabla_X Y, Z) = g([X,Y],Z) - g([Y,Z],X) + g([Z,X],Y).

    With the bracket tensor lowered once, low[i][j][k] = g([e_i,e_j], e_k),
    on basis fields this reads
    2 nabla_{e_i} e_j = G^{-1} (low[i][j][k] - low[j][k][i] + low[k][i][j])_k."""
    n = g.n
    if metric.n != n:
        raise ValueError("metric dimension mismatch")
    ginv = metric.inverse()  # raises on a singular Gram matrix
    half = Scalar([Fraction(1, 2)])
    low = [[metric.gram.apply(g.c[i][j]) for j in range(n)] for i in range(n)]
    coeffs = [[ginv.apply(tuple(half * (low[i][j][k] - low[j][k][i] + low[k][i][j])
                                for k in range(n)))
               for j in range(n)] for i in range(n)]
    return Connection(coeffs)


def is_torsion_free(g: LieAlgebra, conn: Connection) -> bool:
    for i in range(g.n):
        for j in range(g.n):
            diff = vec_add(conn.coeffs[i][j], vec_scale(-ONE, conn.coeffs[j][i]))
            if diff != g.c[i][j]:
                return False
    return True


def is_metric_compatible(g: LieAlgebra, conn: Connection, metric: Metric) -> bool:
    # invariant fields have constant inner products, so
    # g(nabla_{e_i} e_j, e_k) + g(e_j, nabla_{e_i} e_k) = 0
    for i in range(g.n):
        for j in range(g.n):
            for k in range(g.n):
                val = metric.pairing(conn.coeffs[i][j], unit_vector(g.n, k))
                val = val + metric.pairing(unit_vector(g.n, j), conn.coeffs[i][k])
                if not val.is_zero:
                    return False
    return True


# -- projections -----------------------------------------------------------

def leaf_gram(leaf_basis: tuple[Vector, ...], metric: Metric) -> ScalarMatrix:
    return ScalarMatrix([[metric.pairing(a, b) for b in leaf_basis] for a in leaf_basis])


def perp_projector(leaf_basis: tuple[Vector, ...], metric: Metric) -> ScalarMatrix:
    """Matrix of the g-orthogonal projection onto the complement of the span:
    id - H (H^T G H)^{-1} H^T G for H the basis-column matrix."""
    n = metric.n
    if not leaf_basis:
        return ScalarMatrix.identity(n)
    H = ScalarMatrix([[leaf_basis[a][i] for a in range(len(leaf_basis))] for i in range(n)])
    HtG = H.transpose().matmul(metric.gram)
    gram = HtG.matmul(H)
    try:
        gram_inv = gram.inverse()
    except ValueError:
        raise ValueError("degenerate leaf metric") from None
    P = H.matmul(gram_inv).matmul(HtG)
    entries = [[(ONE if i == j else ZERO) - P.entries[i][j] for j in range(n)] for i in range(n)]
    return ScalarMatrix(entries)


def orthogonal_complement(leaf: LeafSubalgebra, metric: Metric) -> Subspace:
    if leaf.dim == 0:
        return Subspace.full(metric.n)
    rows = [metric.gram.apply(b) for b in leaf.space.basis]
    return kernel(ScalarMatrix(rows))


# -- mean curvature -----------------------------------------------------------

@dataclass(frozen=True)
class MeanCurvature:
    """Mean curvature 1-form of the leaves; dual to the trace of their
    second fundamental form."""

    form: InvForm
    vanishes: bool
    basic: bool


def mean_curvature(g: LieAlgebra, leaf: LeafSubalgebra, metric: Metric,
                   basis: tuple[Vector, ...] | None = None) -> MeanCurvature:
    """kappa(X) = sum_{a,b} (G_h^{-1})_{ab} g(nabla_{h_a} h_b, Pperp X).

    Independent of the chosen leaf basis; normalization enters only
    through the inverse leaf Gram matrix, so no square roots appear.
    """
    n = g.n
    h_basis = tuple(vec(b) for b in basis) if basis is not None else leaf.space.basis
    if not h_basis:
        return MeanCurvature(InvForm.zero(n, 1), True, True)
    conn = levi_civita(g, metric)
    gram = leaf_gram(h_basis, metric)
    try:
        gram_inv = gram.inverse()
    except ValueError:
        raise ValueError("degenerate leaf metric") from None
    pperp = perp_projector(h_basis, metric)
    trace = zero_vector(n)
    for a in range(len(h_basis)):
        for b in range(len(h_basis)):
            w = gram_inv.entries[a][b]
            if w.is_zero:
                continue
            trace = vec_add(trace, vec_scale(w, conn.nabla(h_basis[a], h_basis[b])))
    coeffs = {}
    for j in range(n):
        val = metric.pairing(trace, pperp.column(j))
        if not val.is_zero:
            coeffs[(j,)] = val
    form = InvForm(n, 1, coeffs)
    return MeanCurvature(form, form.is_zero, _is_basic(g, leaf, form))


def _is_basic(g: LieAlgebra, leaf: LeafSubalgebra, form: InvForm) -> bool:
    """i_v form = 0 and i_v d form = 0 for every leaf direction v."""
    d_form = ce_d(g, form)
    return all(form.interior(v).is_zero and d_form.interior(v).is_zero
               for v in leaf.space.basis)


# -- bundle-like check ---------------------------------------------------------

@dataclass(frozen=True)
class BundleLikeResult:
    holds: bool
    witness: tuple[Vector, Vector, Vector, Scalar] | None

    def __bool__(self):
        return self.holds


def bundle_like_check(g: LieAlgebra, leaf: LeafSubalgebra, metric: Metric) -> BundleLikeResult:
    """Invariant form of the holonomy-invariance of the transverse metric:
    for leaf-tangent v and transverse X, Y the expression
    g(Pperp [v,X], Y) + g(X, Pperp [v,Y]) must vanish."""
    perp = orthogonal_complement(leaf, metric)
    pperp = perp_projector(leaf.space.basis, metric)
    for v in leaf.space.basis:
        for a in range(perp.dim):
            X = perp.basis[a]
            for b in range(a, perp.dim):
                Y = perp.basis[b]
                val = metric.pairing(pperp.apply(g.bracket(v, X)), Y)
                val = val + metric.pairing(X, pperp.apply(g.bracket(v, Y)))
                if not val.is_zero:
                    return BundleLikeResult(False, (v, X, Y, val))
    return BundleLikeResult(True, None)


# -- coclosedness ----------------------------------------------------------------

def coclosed_check(g: LieAlgebra, leaf: LeafSubalgebra, metric: Metric,
                   alpha: InvForm) -> bool:
    """Whether a basic 1-form is coclosed for the transverse star:
    d(star(alpha ^ chi)) = 0, chi the characteristic form of the leaves.

    For vectors X_1..X_k, star(X_1^flat ^ ... ^ X_k^flat) is
    i_{X_k} ... i_{X_1} vol.  With chi the wedge of the flats of the leaf
    basis v_1..v_p this gives

        star(alpha ^ chi) = i_{v_p} ... i_{v_1} i_{alpha^sharp} vol,

    so the only inverse needed is alpha^sharp.  The form is contracted out
    of e^{1..n} instead of vol = sqrt(det G) e^{1..n}, and chi is not
    normalised by the leaf Gram determinant.  Both factors are nonzero
    constants, and d is linear over constants, so d of the result vanishes
    exactly when d of the true star does.
    """
    if alpha.degree != 1:
        raise ValueError("coclosedness is checked for 1-forms")
    if not _is_basic(g, leaf, alpha):
        raise ValueError("form is not basic for the foliation")
    star = InvForm.basis_form(metric.n, range(metric.n)).interior(metric.sharp(alpha))
    for v in leaf.space.basis:
        star = star.interior(v)
    return ce_d(g, star).is_zero
