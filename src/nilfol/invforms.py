"""Invariant exterior algebra and the Chevalley-Eilenberg differential.

A k-form is a map from strictly increasing k-tuples of basis indices to
Q(s) coefficients; degree-0 forms are constants (invariant functions on a
connected group are constant, so there are no nonzero exact invariant
1-forms).

Sign convention for the differential: on invariant 1-forms

    (d a)(X, Y) = -a([X, Y]),

extended to higher degrees as an antiderivation.  This is the convention
under which d of the dual frame matches coordinate differentiation of the
corresponding left-invariant coordinate forms.  The opposite sign on the
bracket term changes no kernel, rank or dimension computed here.

There is one differential, built straight from the structure constants.
The table d(e^m) = -sum_{i<j} c^m_ij e^i ^ e^j is read off ``g.c`` once per
call.  On a basis form e^idx = e^{m_0} ^ ... ^ e^{m_{k-1}} the
antiderivation rule gives

    d(e^idx) = sum_t (-1)^t e^{m_0} ^ ... ^ d(e^{m_t}) ^ ... ^ e^{m_{k-1}},

so each term of d(e^{m_t}) replaces position t of ``idx`` by the pair
(i, j).  A term whose i or j already occurs elsewhere in ``idx`` vanishes;
otherwise sorting the new index tuple gives the sign (-1)^(t + inversions).
With p and q the numbers of remaining indices below i and below j, the
inversions have the parity of p + q.  ``ce_d`` and ``d_matrix`` both
apply this one rule.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

from .exactalg import (
    ONE,
    Scalar,
    ScalarMatrix,
    Subspace,
    Vector,
    ZERO,
    extend_basis,
    kernel,
    primitive_factor,
    vec,
)
from .liealg import LeafSubalgebra, LieAlgebra

Index = tuple[int, ...]


def multi_indices(n: int, k: int) -> list[Index]:
    """Strictly increasing k-tuples in lexicographic order."""
    return list(itertools.combinations(range(n), k))


def _merge_sign(a: Index, b: Index) -> tuple[int, Index] | None:
    """Sort the concatenation of two increasing tuples; None if they meet."""
    if set(a) & set(b):
        return None
    inversions = 0
    for x in a:
        for y in b:
            if y < x:
                inversions += 1
    merged = tuple(sorted(a + b))
    return (-1 if inversions % 2 else 1), merged


class InvForm:
    """Left-invariant differential form with Q(s) coefficients."""

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs: Mapping[Index, Scalar] | None = None):
        # degree > n is allowed and forces the zero form
        if degree < 0:
            raise ValueError("degree out of range")
        clean: dict[Index, Scalar] = {}
        for idx, value in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index {idx} has wrong length for degree {degree}")
            if any(not (0 <= i < n) for i in idx):
                raise ValueError(f"index {idx} out of range")
            if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                raise ValueError(f"index {idx} is not strictly increasing")
            value = Scalar._coerce(value)
            if not value.is_zero:
                clean[idx] = value
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("InvForm is immutable")

    @classmethod
    def basis_form(cls, n: int, indices: Sequence[int], coeff: Scalar = ONE) -> "InvForm":
        return cls(n, len(indices), {tuple(indices): coeff})

    @classmethod
    def constant(cls, n: int, value: Scalar) -> "InvForm":
        return cls(n, 0, {(): value})

    @classmethod
    def zero(cls, n: int, degree: int) -> "InvForm":
        return cls(n, degree, {})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, indices: Sequence[int]) -> Scalar:
        return self.coeffs.get(tuple(indices), ZERO)

    def _compat(self, other: "InvForm"):
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError("form dimension or degree mismatch")

    def add(self, other: "InvForm") -> "InvForm":
        self._compat(other)
        out = dict(self.coeffs)
        for idx, value in other.coeffs.items():
            out[idx] = out.get(idx, ZERO) + value
        return InvForm(self.n, self.degree, out)

    def sub(self, other: "InvForm") -> "InvForm":
        return self.add(other.scale(-ONE))

    def scale(self, c: Scalar) -> "InvForm":
        c = Scalar._coerce(c)
        return InvForm(self.n, self.degree, {idx: c * v for idx, v in self.coeffs.items()})

    def wedge(self, other: "InvForm") -> "InvForm":
        if self.n != other.n:
            raise ValueError("forms live on different algebras")
        if self.degree + other.degree > self.n:
            return InvForm.zero(self.n, self.degree + other.degree)
        out: dict[Index, Scalar] = {}
        for ia, va in self.coeffs.items():
            for ib, vb in other.coeffs.items():
                merged = _merge_sign(ia, ib)
                if merged is None:
                    continue
                sign, idx = merged
                term = va * vb
                if sign < 0:
                    term = -term
                out[idx] = out.get(idx, ZERO) + term
        return InvForm(self.n, self.degree + other.degree, out)

    def interior(self, v: Sequence) -> "InvForm":
        """Contraction with a vector in the first slot."""
        v = vec(v)
        if len(v) != self.n:
            raise ValueError("vector has wrong dimension")
        if self.degree == 0:
            raise ValueError("cannot contract a 0-form")
        out: dict[Index, Scalar] = {}
        for idx, value in self.coeffs.items():
            for t, i in enumerate(idx):
                if v[i].is_zero:
                    continue
                rest = idx[:t] + idx[t + 1:]
                term = v[i] * value
                if t % 2:
                    term = -term
                out[rest] = out.get(rest, ZERO) + term
        return InvForm(self.n, self.degree - 1, out)

    def __eq__(self, other):
        return (isinstance(other, InvForm) and self.n == other.n
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n, self.degree, tuple(sorted(self.coeffs.items()))))

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "0"
        names = names or [f"e{i+1}" for i in range(self.n)]
        parts = []
        for idx in sorted(self.coeffs):
            value = self.coeffs[idx]
            word = "^".join(names[i] for i in idx) if idx else "1"
            text = str(value)
            if idx and text == "1":
                body = word
            elif idx and text == "-1":
                body = f"-{word}"
            else:
                if not _is_simple_coeff(text):
                    text = f"({text})"
                body = f"{text}*{word}" if idx else text
            if not parts:
                parts.append(body)
            else:
                parts.append(f"- {body[1:]}" if body.startswith("-") else f"+ {body}")
        return " ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"InvForm({self})"


def _is_simple_coeff(text: str) -> bool:
    return all(ch not in text for ch in " +") and text.count("-") <= (1 if text.startswith("-") else 0)


# -- differential ---------------------------------------------------------

_DTable = list[list[tuple[int, int, Scalar]]]


def _d_table(g: LieAlgebra) -> _DTable:
    """Row m lists the terms (i, j, -c^m_ij), i < j, of d(e^m)."""
    n = g.n
    return [[(i, j, -g.c[i][j][m]) for i in range(n) for j in range(i + 1, n)
             if not g.c[i][j][m].is_zero] for m in range(n)]


def _d_basis(table: _DTable, idx: Index) -> dict[Index, Scalar]:
    """d(e^idx) by the antiderivation rule over index positions (see the
    module docstring); zero coefficients may remain."""
    out: dict[Index, Scalar] = {}
    for t, m in enumerate(idx):
        rest = idx[:t] + idx[t + 1:]
        for i, j, c in table[m]:
            if i in rest or j in rest:
                continue
            p, q = bisect_left(rest, i), bisect_left(rest, j)
            jdx = rest[:p] + (i,) + rest[p:q] + (j,) + rest[q:]
            out[jdx] = out.get(jdx, ZERO) + (-c if (t + p + q) % 2 else c)
    return out


def ce_d(g: LieAlgebra, form: InvForm) -> InvForm:
    """Chevalley-Eilenberg differential, extended as an antiderivation."""
    if form.n != g.n:
        raise ValueError("form does not live on this algebra")
    table = _d_table(g)
    out: dict[Index, Scalar] = {}
    for idx, value in form.coeffs.items():
        for jdx, c in _d_basis(table, idx).items():
            out[jdx] = out.get(jdx, ZERO) + value * c
    return InvForm(g.n, form.degree + 1, out)


def d_matrix(g: LieAlgebra, k: int) -> ScalarMatrix:
    """Matrix of d from degree k to degree k+1 in the lexicographic bases."""
    table = _d_table(g)
    source = multi_indices(g.n, k)
    target_pos = {idx: t for t, idx in enumerate(multi_indices(g.n, k + 1))}
    rows = [[ZERO] * len(source) for _ in target_pos]
    for col, idx in enumerate(source):
        for jdx, c in _d_basis(table, idx).items():
            rows[target_pos[jdx]][col] = c
    return ScalarMatrix(rows)


def form_to_vector(form: InvForm) -> Vector:
    combos = multi_indices(form.n, form.degree)
    return tuple(form.coeffs.get(idx, ZERO) for idx in combos)


def vector_to_form(n: int, k: int, coords: Sequence) -> InvForm:
    combos = multi_indices(n, k)
    coords = vec(coords)
    if len(coords) != len(combos):
        raise ValueError("coordinate vector has wrong length")
    return InvForm(n, k, {idx: c for idx, c in zip(combos, coords) if not c.is_zero})


def primitive_form(form: InvForm) -> InvForm:
    """Rescale by a constant in Q(s) so the coefficients become integer
    polynomials with content 1 and the lowest-index entry has a positive
    leading coefficient.  Used for presenting canonical representatives."""
    if form.is_zero:
        return form
    return form.scale(primitive_factor([form.coeffs[idx] for idx in sorted(form.coeffs)]))


# -- cohomology -------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyReport:
    """Dimension and closed representatives of a cohomology space."""

    degree: int
    dim: int
    representatives: tuple[InvForm, ...]
    space: Subspace | None = None


def cohomology(g: LieAlgebra, k: int) -> CohomologyReport:
    """dim H^k = dim ker(d on degree k) - rank(d on degree k-1), with
    closed representatives completing a basis of the exact forms."""
    if not (0 <= k <= g.n):
        raise ValueError("degree out of range")
    closed = kernel(d_matrix(g, k)) if k < g.n else Subspace.full(len(multi_indices(g.n, k)))
    if k == 0:
        return CohomologyReport(0, closed.dim, tuple(
            vector_to_form(g.n, 0, row) for row in closed.basis), closed)
    prev = d_matrix(g, k - 1)
    exact = Subspace(prev.rows, [prev.column(c) for c in range(prev.cols)])
    reps = extend_basis(exact.basis, closed.basis)
    return CohomologyReport(k, closed.dim - exact.dim,
                            tuple(vector_to_form(g.n, k, row) for row in reps))


# -- basic subcomplex --------------------------------------------------------

def basic_forms(g: LieAlgebra, leaf: LeafSubalgebra, k: int) -> Subspace:
    """Invariant k-forms killed by contraction with the leaf directions,
    both directly and after applying d; returned as the subspace of
    coefficient vectors in the lexicographic basis of degree k."""
    combos = multi_indices(g.n, k)
    if k == 0:
        # basic constants: killed by every i_v automatically; i_v d = 0 too
        return Subspace.full(1)
    table = _d_table(g)
    basis_images = [(InvForm.basis_form(g.n, idx), InvForm(g.n, k + 1, _d_basis(table, idx)))
                    for idx in combos]
    lower = multi_indices(g.n, k - 1)
    lower_pos = {idx: t for t, idx in enumerate(lower)}
    same_pos = {idx: t for t, idx in enumerate(combos)}
    rows: list[list[Scalar]] = []
    for v in leaf.space.basis:
        block1 = [[ZERO] * len(combos) for _ in lower]
        block2 = [[ZERO] * len(combos) for _ in combos]
        for col, (e, de) in enumerate(basis_images):
            contracted = e.interior(v)
            for jdx, value in contracted.coeffs.items():
                block1[lower_pos[jdx]][col] = value
            d_contracted = de.interior(v)
            for jdx, value in d_contracted.coeffs.items():
                block2[same_pos[jdx]][col] = value
        rows.extend(block1)
        rows.extend(block2)
    if not rows:
        return Subspace.full(len(combos))
    return kernel(ScalarMatrix(rows))


def basic_h1(g: LieAlgebra, leaf: LeafSubalgebra) -> CohomologyReport:
    """Closed basic invariant 1-forms.

    A closed 1-form is basic iff it vanishes on the leaf, since i_v d(alpha)
    = 0 holds once d(alpha) = 0.  So the space is one kernel: of the leaf
    vectors (alpha(v) = 0) stacked on the rows of d_1 (d(alpha) = 0).

    This space is the whole first basic cohomology: invariant 0-forms are
    constants, so no nonzero exact invariant 1-form exists.
    """
    space = kernel(ScalarMatrix._of_rows(leaf.space.basis + d_matrix(g, 1).entries, g.n))
    reps = tuple(primitive_form(vector_to_form(g.n, 1, row)) for row in space.basis)
    return CohomologyReport(1, space.dim, reps, space)
