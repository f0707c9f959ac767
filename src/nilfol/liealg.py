"""Nilpotent Lie algebras over Q(s) from structure constants.

An algebra is a structure-constant tensor: ``c[i][j]`` is the coordinate
vector of the bracket of the i-th and j-th basis vectors.  The module
verifies antisymmetry, the Jacobi identity and nilpotency, computes the
lower central series, decides subalgebra/ideal membership of subspaces,
and computes rational hulls (the smallest bracket-closed subspace defined
over Q that contains a given subalgebra), which model the tangent
directions of leaf closures for lattices generated by exponentials of the
basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .exactalg import (
    Scalar,
    Subspace,
    Vector,
    ZERO,
    bilinear,
    q_decompose,
    unit_vector,
    vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on an algebra."""

    antisymmetry_ok: bool
    jacobi_ok: bool
    nilpotent: bool
    nilpotency_class: int | None
    lcs_dims: tuple[int, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.antisymmetry_ok and self.jacobi_ok and self.nilpotent


class LieAlgebra:
    """Finite-dimensional algebra given by its structure tensor over Q(s)."""

    __slots__ = ("n", "basis_names", "c")

    def __init__(self, dim: int,
                 brackets: Mapping[tuple[int, int], Mapping[int, Scalar]] | None = None,
                 basis_names: Sequence[str] | None = None):
        """Build from sparse brackets keyed by 0-based pairs (i, j), i < j.

        The antisymmetric completion c[j][i] = -c[i][j] is applied
        automatically; unspecified brackets are zero.
        """
        if dim < 1:
            raise ValueError("dimension must be positive")
        names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(dim))
        if len(names) != dim:
            raise ValueError("wrong number of basis names")
        tensor = [[zero_vector(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), value in (brackets or {}).items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index ({i+1},{j+1}) out of range")
            if i == j:
                raise ValueError(f"bracket of e{i+1} with itself must be zero")
            if i > j:
                raise ValueError("specify brackets with i < j; the mirror is implied")
            if not vec_is_zero(tensor[i][j]):
                raise ValueError(f"bracket ({i+1},{j+1}) specified twice")
            v = [ZERO] * dim
            for m, coeff in value.items():
                if not (0 <= m < dim):
                    raise ValueError(f"bracket value index {m+1} out of range")
                v[m] = Scalar._coerce(coeff)
            tensor[i][j] = tuple(v)
            tensor[j][i] = vec_scale(-Scalar._coerce(1), tuple(v))
        object.__setattr__(self, "n", dim)
        object.__setattr__(self, "basis_names", names)
        object.__setattr__(self, "c", tuple(tuple(row) for row in tensor))

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def from_structure_tensor(cls, tensor: Sequence[Sequence[Vector]],
                              basis_names: Sequence[str] | None = None) -> "LieAlgebra":
        """Build from a full tensor; antisymmetry is checked by validate()."""
        dim = len(tensor)
        obj = cls(dim, {}, basis_names)
        grid = tuple(tuple(vec(tensor[i][j]) for j in range(dim)) for i in range(dim))
        for row in grid:
            for v in row:
                if len(v) != dim:
                    raise ValueError("tensor entries must have length dim")
        object.__setattr__(obj, "c", grid)
        return obj

    # -- bracket --------------------------------------------------------

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """Bilinear extension of the structure tensor."""
        x, y = vec(x), vec(y)
        if len(x) != self.n or len(y) != self.n:
            raise ValueError("vectors must have the ambient dimension")
        return bilinear(self.c, x, y)

    # -- structural checks ------------------------------------------------

    def validate(self) -> ValidationReport:
        violations: list[str] = []
        anti = True
        for i in range(self.n):
            if not vec_is_zero(self.c[i][i]):
                anti = False
                violations.append(f"antisymmetry: [{self._nm(i)},{self._nm(i)}] != 0")
                break
            for j in range(i + 1, self.n):
                if not vec_is_zero(vec_add(self.c[i][j], self.c[j][i])):
                    anti = False
                    violations.append(
                        f"antisymmetry: [{self._nm(i)},{self._nm(j)}] != -[{self._nm(j)},{self._nm(i)}]")
                    break
            if not anti:
                break
        jacobi = True
        if anti:
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    for k in range(j + 1, self.n):
                        total = self.bracket(self.c[i][j], unit_vector(self.n, k))
                        total = vec_add(total, self.bracket(self.c[j][k], unit_vector(self.n, i)))
                        total = vec_add(total, self.bracket(self.c[k][i], unit_vector(self.n, j)))
                        if not vec_is_zero(total):
                            jacobi = False
                            violations.append(
                                f"jacobi: fails on ({self._nm(i)},{self._nm(j)},{self._nm(k)})")
                            break
                    if not jacobi:
                        break
                if not jacobi:
                    break
        nilpotent = False
        nilpotency_class: int | None = None
        lcs_dims: tuple[int, ...] = ()
        if anti and jacobi:
            series = self.lower_central_series()
            lcs_dims = tuple(t.dim for t in series)
            nilpotent = series[-1].dim == 0
            if nilpotent:
                nilpotency_class = len(series) - 1
            else:
                violations.append(
                    f"nilpotency: lower central series stabilizes at dimension {series[-1].dim}")
        return ValidationReport(anti, jacobi, nilpotent, nilpotency_class,
                                lcs_dims, tuple(violations))

    def lower_central_series(self) -> list[Subspace]:
        """g >= [g,g] >= [g,[g,g]] >= ... until the terms stabilize."""
        current = Subspace.full(self.n)
        series = [current]
        while True:
            vectors = []
            for i in range(self.n):
                for b in current.basis:
                    w = self.bracket(unit_vector(self.n, i), b)
                    if not vec_is_zero(w):
                        vectors.append(w)
            nxt = Subspace(self.n, vectors)
            if nxt.dim == current.dim:
                break
            series.append(nxt)
            current = nxt
            if current.dim == 0:
                break
        return series

    def is_subalgebra(self, space: Subspace) -> bool:
        self._check_space(space)
        for a in space.basis:
            for b in space.basis:
                if not space.contains_vector(self.bracket(a, b)):
                    return False
        return True

    def is_ideal(self, space: Subspace) -> bool:
        self._check_space(space)
        for i in range(self.n):
            for b in space.basis:
                if not space.contains_vector(self.bracket(unit_vector(self.n, i), b)):
                    return False
        return True

    def bracket_closure(self, space: Subspace) -> Subspace:
        """Smallest bracket-closed subspace containing the given one."""
        self._check_space(space)
        current = space
        while True:
            vectors = list(current.basis)
            for a in current.basis:
                for b in current.basis:
                    w = self.bracket(a, b)
                    if not vec_is_zero(w):
                        vectors.append(w)
            nxt = Subspace(self.n, vectors)
            if nxt.dim == current.dim:
                return nxt
            current = nxt

    def rational_hull(self, space: Subspace) -> Subspace:
        """Smallest subspace containing ``space`` that is defined over Q
        and closed under the bracket.

        Alternates coefficient-layer decomposition with bracket closure;
        the dimension grows strictly until both properties hold, so at most
        n passes run.
        """
        self._check_space(space)
        current = space
        while True:
            decomposed = q_decompose(current.basis, self.n)
            closed = self.bracket_closure(decomposed)
            if closed == current:
                return current
            current = closed

    def _check_space(self, space: Subspace):
        if space.ambient_dim != self.n:
            raise ValueError("subspace has wrong ambient dimension")

    def _nm(self, i: int) -> str:
        return self.basis_names[i]

    def __repr__(self):
        return f"LieAlgebra(dim {self.n})"


class LeafSubalgebra:
    """Subalgebra spanning the leaf directions of an invariant foliation.

    The generators must span a bracket-closed subspace.  The construction
    used for the examples produces an ideal (kernel of a homomorphism);
    a non-ideal subalgebra is accepted but flagged, since the basic-form
    machinery is well defined for any subalgebra.
    """

    __slots__ = ("parent", "space", "generators", "is_ideal")

    def __init__(self, parent: LieAlgebra, generators: Sequence[Sequence]):
        gens = tuple(vec(g) for g in generators)
        space = Subspace(parent.n, [g for g in gens if not vec_is_zero(g)])
        if not parent.is_subalgebra(space):
            raise ValueError("foliation generators do not span a subalgebra")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "is_ideal", parent.is_ideal(space))

    def __setattr__(self, name, value):
        raise AttributeError("LeafSubalgebra is immutable")

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"LeafSubalgebra(dim {self.dim} in dim {self.parent.n})"
