"""Rational first basic cohomology, period lattices, and the basic
Albanese torus and map for invariant foliations on nilmanifolds.

The lattice of the nilmanifold is the group generated by the exponentials
of the frame vectors ("exp-generated").  Under that convention the loop
through exp(t e_j) has invariant tangent e_j, so the period of a closed
invariant 1-form over generator loop j is simply the form's j-th
coefficient, and all period computations stay exact.  Since invariant
0-forms are constants there are no nonzero exact invariant 1-forms, which
is why rationality can be tested at the coefficient level in degree 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    IntLattice,
    Scalar,
    ScalarMatrix,
    Subspace,
    extend_basis,
    hnf_lattice,
    hnf_rows,
    kernel,
    rational_subspace,
    rref,
)
from .geometry import Metric
from .invforms import (
    InvForm,
    basic_h1,
    ce_d,
    d_matrix,
    form_to_vector,
    vector_to_form,
)
from .liealg import LeafSubalgebra, LieAlgebra

LATTICE_MODE = "exp-generated"


@dataclass(frozen=True)
class FoliatedNilmanifold:
    """Nilpotent algebra + leaf subalgebra + invariant metric, with the
    exp-generated lattice convention fixed."""

    algebra: LieAlgebra
    leaf: LeafSubalgebra
    metric: Metric
    lattice_mode: str = LATTICE_MODE
    name: str = ""

    def __post_init__(self):
        if self.lattice_mode != LATTICE_MODE:
            raise ValueError(f"unsupported lattice mode {self.lattice_mode!r}; "
                             f"only {LATTICE_MODE!r} lattices are modeled")
        report = self.algebra.validate()
        if not report.ok:
            raise ValueError("invalid algebra: " + "; ".join(report.violations))
        if self.leaf.parent is not self.algebra:
            raise ValueError("leaf subalgebra belongs to a different algebra")
        if self.metric.n != self.algebra.n:
            raise ValueError("metric dimension mismatch")
        self.metric.inverse()  # raises if the Gram matrix is singular

    @property
    def n(self) -> int:
        return self.algebra.n


@dataclass(frozen=True)
class TorusDescriptor:
    rank: int
    lattice: IntLattice | None

    @property
    def standard(self) -> bool:
        return self.lattice is not None and self.lattice.is_standard()

    def describe(self) -> str:
        if self.rank == 0:
            return "point"
        if self.standard:
            return f"T^{self.rank} = R^{self.rank}/Z^{self.rank}"
        return f"R^{self.rank} modulo a rank-{self.rank} lattice"


@dataclass(frozen=True)
class AlbaneseResult:
    k: int
    forms: tuple[InvForm, ...]
    period_matrix: tuple[tuple[Fraction, ...], ...]
    lattice: IntLattice | None
    torus: TorusDescriptor
    trivial: bool


GroupWord = tuple[tuple[int, Fraction], ...]


def parse_group_word(text: str) -> GroupWord:
    """Parse "j:t,j:t,..." with 1-based generator indices and rational times."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if ":" not in piece:
            raise ValueError(f"bad word segment {piece!r}; expected j:t")
        head, _, tail = piece.partition(":")
        try:
            j = int(head)
            t = Fraction(tail)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad word segment {piece!r}: {exc}") from None
        out.append((j, t))
    return tuple(out)


# -- rational basic classes -----------------------------------------------

def basic_rational_basis(fnm: FoliatedNilmanifold) -> tuple[int, tuple[InvForm, ...]]:
    """Canonical Q-basis of the rational closed basic 1-forms.

    The rational members of the closed-basic space are reduced to a
    Hermite-normal-form integer basis so the period matrix downstream is
    reproducible across runs.
    """
    report = basic_h1(fnm.algebra, fnm.leaf)
    rational = rational_subspace(report.space)
    rows = _hnf_rational_rows(rational)
    return rational.dim, tuple(vector_to_form(fnm.n, 1, row) for row in rows)


def _hnf_rational_rows(space: Subspace) -> list[tuple[Scalar, ...]]:
    """HNF of the integer rows that clear the denominators of a rational
    subspace's basis, left unscaled."""
    _, hnf = hnf_rows([[e.as_fraction() for e in row] for row in space.basis])
    return [tuple(Scalar.from_fraction(e) for e in row) for row in hnf]


def period_matrix(fnm: FoliatedNilmanifold,
                  forms: tuple[InvForm, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """Row i holds the periods of form i over the generator loops, which
    for exp-generated lattices equal the form's coefficients."""
    rows = []
    for form in forms:
        if form.degree != 1 or form.n != fnm.n:
            raise ValueError("period matrix needs 1-forms on the algebra")
        if not ce_d(fnm.algebra, form).is_zero:
            raise ValueError("non-closed form has no well-defined periods")
        row = []
        for j in range(fnm.n):
            c = form.coefficient((j,))
            if not c.is_rational:
                raise ValueError("irrational coefficient; periods are not rational")
            row.append(c.as_fraction())
        rows.append(tuple(row))
    return tuple(rows)


def albanese_lattice(fnm: FoliatedNilmanifold) -> AlbaneseResult:
    """Period lattice and torus of the rational closed basic 1-forms."""
    k, forms = basic_rational_basis(fnm)
    if k == 0:
        return AlbaneseResult(0, (), (), None, TorusDescriptor(0, None), True)
    periods = period_matrix(fnm, forms)
    columns = [tuple(periods[i][j] for i in range(k)) for j in range(fnm.n)]
    lattice = hnf_lattice(columns)
    return AlbaneseResult(k, forms, periods, lattice, TorusDescriptor(k, lattice), False)


def albanese_map(fnm: FoliatedNilmanifold, word: GroupWord,
                 result: AlbaneseResult | None = None) -> tuple[Fraction, ...]:
    """Image of a word in the generator one-parameter subgroups, reduced
    modulo the period lattice.  Exact: each segment exp(t e_j) contributes
    t times column j of the period matrix."""
    if result is None:
        result = albanese_lattice(fnm)
    if result.trivial:
        return ()
    point = [Fraction(0)] * result.k
    for j, t in word:
        if not (1 <= j <= fnm.n):
            raise ValueError(f"generator index {j} out of range")
        for i in range(result.k):
            point[i] += t * result.period_matrix[i][j - 1]
    return result.lattice.reduce(point)


def submersion_check(fnm: FoliatedNilmanifold,
                     forms: tuple[InvForm, ...] | None = None) -> bool:
    """The chosen 1-forms are pointwise independent iff their constant
    coefficient vectors are independent over Q(s)."""
    if forms is None:
        _, forms = basic_rational_basis(fnm)
    if not forms:
        return True
    rows = [form_to_vector(f) for f in forms]
    return rref(ScalarMatrix(rows)).rank == len(forms)


@dataclass(frozen=True)
class FiberReport:
    fiber: Subspace
    is_subalgebra: bool
    restricted_dense: bool


def fiber_report(fnm: FoliatedNilmanifold) -> FiberReport:
    """Joint kernel of the rational basic forms; the restricted foliation
    is dense in the fiber iff the rational hull of the leaf subalgebra
    fills the whole fiber."""
    k, forms = basic_rational_basis(fnm)
    if not submersion_check(fnm, forms):
        raise ValueError("non-submersive configuration")
    if k == 0:
        fiber = Subspace.full(fnm.n)
    else:
        fiber = kernel(ScalarMatrix([form_to_vector(f) for f in forms]))
    hull = fnm.algebra.rational_hull(fnm.leaf.space)
    return FiberReport(fiber, fnm.algebra.is_subalgebra(fiber), hull == fiber)


@dataclass(frozen=True)
class BasicFoliationReport:
    hull: Subspace
    q_b: int
    dim_h1_basic_foliation: int
    k: int
    tprank_ok: bool


def basic_foliation_report(fnm: FoliatedNilmanifold) -> BasicFoliationReport:
    """Compare the rational rank with the first cohomology of the coarser
    foliation whose leaves point along the rational hull."""
    hull = fnm.algebra.rational_hull(fnm.leaf.space)
    # closed 1-forms vanishing on the hull: one kernel of [hull; d_1]
    space = kernel(ScalarMatrix._of_rows(hull.basis + d_matrix(fnm.algebra, 1).entries, fnm.n))
    k, _ = basic_rational_basis(fnm)
    return BasicFoliationReport(hull, fnm.n - hull.dim, space.dim, k, space.dim == k)


@dataclass(frozen=True)
class ClassicalAlbanese:
    b1: int
    lattice: IntLattice | None
    torus: TorusDescriptor | None
    status: str
    projection_ok: bool


def classical_albanese(fnm: FoliatedNilmanifold) -> ClassicalAlbanese:
    """Period lattice of a closed-form basis extending the rational basic
    forms, plus the compatibility of the coordinate projection with the
    basic period lattice.

    If the closed 1-forms do not admit a full basis of rational
    coefficient vectors the ambient torus is left undescribed (status
    "irrational-periods"); the projection test only needs the first k
    rows, which are rational by construction, so it is still exact.
    """
    g = fnm.algebra
    closed = kernel(d_matrix(g, 1))
    b1 = closed.dim
    basic = albanese_lattice(fnm)
    k = basic.k
    chosen = [form_to_vector(f) for f in basic.forms]
    rational_closed = rational_subspace(closed)
    pool = _hnf_rational_rows(rational_closed)
    status = "ok" if rational_closed.dim == b1 else "irrational-periods"
    if status != "ok":
        pool = pool + list(closed.basis)
    # the pool spans the closed forms, which contain the basic ones: b1 rows in all
    chosen += extend_basis(chosen, pool)
    projection_ok = True
    if k > 0:
        for j in range(fnm.n):
            head = [chosen[i][j].as_fraction() for i in range(k)]
            if not basic.lattice.contains(head):
                projection_ok = False
                break
    if status != "ok":
        return ClassicalAlbanese(b1, None, None, status, projection_ok)
    columns = [tuple(chosen[i][j].as_fraction() for i in range(b1)) for j in range(fnm.n)]
    if b1 == 0:
        return ClassicalAlbanese(0, None, TorusDescriptor(0, None), "ok", projection_ok)
    lattice = hnf_lattice(columns)
    return ClassicalAlbanese(b1, lattice, TorusDescriptor(b1, lattice), "ok", projection_ok)


@dataclass(frozen=True)
class StratumReport:
    q: int
    k: int
    passes: bool
    closure_leaf_codim: int


def stratum_codim_check(fnm: FoliatedNilmanifold) -> StratumReport:
    """Codimension bound for the foliation restricted to the strata of the
    leaf-closure stratification: codim >= rational rank.  The codimension
    of the leaves inside their closures is reported alongside."""
    k, forms = basic_rational_basis(fnm)
    if not submersion_check(fnm, forms):
        raise ValueError("non-submersive configuration")
    q = fnm.n - fnm.leaf.dim
    hull = fnm.algebra.rational_hull(fnm.leaf.space)
    return StratumReport(q, k, q >= k, hull.dim - fnm.leaf.dim)
