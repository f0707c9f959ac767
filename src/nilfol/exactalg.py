"""Exact arithmetic over Q(s) and the exact linear algebra built on it.

A scalar is a rational function in one indeterminate ``s`` with rational
coefficients.  Polynomials are stored as coefficient tuples (constant term
first, no trailing zeros, ``()`` for the zero polynomial).  Every scalar is
kept in canonical form:

* numerator and denominator are coprime,
* the denominator is monic (so rational constants have denominator 1),

which makes equality of field elements plain structural equality.

Polynomial products, exact quotients and gcds run on integer polynomials:
each operand is cleared of denominators (and, for gcds and quotients, of
its content) first.  The gcd is the primitive pseudo-remainder sequence
over the integers (Brown, J. ACM 18 (1971) 478-504), made monic at the
end; the monic gcd is unique, so the canonical form does not depend on
the method.  Arithmetic whose result is canonical by construction (two
rational constants, a product with a constant, a polynomial plus n/d)
skips the normalisation.

On top of scalars the module provides matrices, reduced row echelon form,
kernels, subspaces (always stored with an RREF basis, so equal subspaces
have identical representations), decomposition of Q(s)-vectors into their
rational coefficient layers, extraction of the rational members of a
subspace, and integer lattices in Hermite normal form.

Every subspace operation is one elimination whose output is already the
RREF basis.  ``kernel`` reduces m with its columns reversed, so each
reduced row ends at its pivot column; each kernel vector then has its
leading 1 on its free column and zeros on the other free columns, which
is RREF.  An intersection is one reduction of stacked rows (Zassenhaus).

``rref`` is the one elimination loop.  Its work rows are sparse dicts of
their nonzero entries (the d-matrices are mostly zeros): a pivot is found
by membership, a row update touches only the pivot row's nonzeros, and
entries that cancel are deleted.  A matrix whose entries are all rational
constants is eliminated on ``Fraction``s and wrapped back into scalars;
any other matrix on scalars.  The RREF is unique, so both give the same
result.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Coeffs = tuple[Fraction, ...]

# Coefficient tuples and vectors are built from lists, not generators.
# CPython sizes a tuple(generator) at 10 and then shrinks it, which moves
# tuples into its per-length free lists; on the s-family benchmark that held
# about 2 MB more peak memory.

_F_ZERO = Fraction(0)
_P_ZERO: Coeffs = ()
_P_ONE: Coeffs = (Fraction(1),)


def _ptrim(cs: Sequence[Fraction]) -> Coeffs:
    n = len(cs)
    while n > 0 and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a: Coeffs) -> Coeffs:
    return tuple([-c for c in a])


def _pints(a: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """(d, d*a): the least common denominator of the coefficients of a and
    the integer polynomial it clears a to."""
    den = math.lcm(*[c.denominator for c in a])
    return den, [c.numerator * (den // c.denominator) for c in a]


def _pprimitive(a: Sequence[Fraction | int]) -> tuple[Fraction, list[int]]:
    """(c, p) with a = c*p, p an integer polynomial with content 1."""
    den, ints = _pints(a)
    content = math.gcd(*ints)
    return Fraction(content, den), [c // content for c in ints]


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return _P_ZERO
    da, x = _pints(a)
    db, y = _pints(b)
    out = [0] * (len(x) + len(y) - 1)
    for i, c in enumerate(x):
        if c:
            for j, e in enumerate(y):
                out[i + j] += c * e
    den = da * db
    return tuple([Fraction(c, den) for c in out])


def _pdiv_exact(a: Coeffs, b: Coeffs) -> Coeffs:
    """a / b for a nonzero b that divides a.  The quotient of the primitive
    integer parts is an integer polynomial (Gauss's lemma), so the long
    division runs over the integers."""
    if not a:
        return _P_ZERO
    ca, x = _pprimitive(a)
    cb, y = _pprimitive(b)
    lead = y[-1]
    quo = [0] * max(len(x) - len(y) + 1, 0)
    for shift in reversed(range(len(quo))):
        q, r = divmod(x[shift + len(y) - 1], lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        quo[shift] = q
        if q:
            for i, c in enumerate(y):
                x[shift + i] -= q * c
    if any(x):
        raise ArithmeticError("inexact polynomial division")
    scale = ca / cb
    return tuple([scale * q for q in quo])


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Monic gcd by the primitive pseudo-remainder sequence over the integers
    (Brown 1971): each remainder is divided by its content, so the integer
    coefficients do not grow from one step to the next."""
    if not a or not b:
        a = a or b
        return tuple([c / a[-1] for c in a])
    if len(a) == 1 or len(b) == 1:
        return _P_ONE
    x, y = _pprimitive(a)[1], _pprimitive(b)[1]
    if len(x) < len(y):
        x, y = y, x
    while True:
        # pseudo-remainder of x by y, one leading term at a time
        lead = y[-1]
        while len(x) >= len(y):
            g = math.gcd(lead, x[-1])
            ly, lx = lead // g, x[-1] // g
            shift = len(x) - len(y)
            if ly != 1:
                x = [c * ly for c in x]
            for i, c in enumerate(y):
                x[shift + i] -= lx * c
            x.pop()
            while x and not x[-1]:
                x.pop()
        if not x:
            return tuple([Fraction(c, lead) for c in y])
        if len(x) == 1:
            return _P_ONE
        x, y = y, _pprimitive(x)[1]


def _peval(a: Coeffs, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def _pstr(a: Coeffs) -> str:
    if not a:
        return "0"
    parts: list[str] = []
    for d in range(len(a) - 1, -1, -1):
        c = a[d]
        if c == 0:
            continue
        if d == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            var = "s" if d == 1 else f"s^{d}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


class Scalar:
    """Element of Q(s) in canonical (reduced, monic-denominator) form."""

    __slots__ = ("num", "den")

    def __init__(self, num: Iterable[Fraction | int], den: Iterable[Fraction | int] = _P_ONE):
        n = _ptrim([c if isinstance(c, Fraction) else Fraction(c) for c in num])
        d = _ptrim([c if isinstance(c, Fraction) else Fraction(c) for c in den])
        if not d:
            raise ZeroDivisionError("denominator polynomial is zero")
        if not n:
            d = _P_ONE
        elif d != _P_ONE:
            g = _pgcd(n, d)
            if len(g) > 1:
                n = _pdiv_exact(n, g)
                d = _pdiv_exact(d, g)
            lead = d[-1]
            if lead != 1:
                n = tuple([c / lead for c in n])
                d = tuple([c / lead for c in d])
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @classmethod
    def _canonical(cls, num: Coeffs, den: Coeffs = _P_ONE) -> "Scalar":
        """The scalar num/den, which must already be in canonical form."""
        if not num:
            return ZERO
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "Scalar":
        if not q:
            return ZERO
        return cls._canonical((q if isinstance(q, Fraction) else Fraction(q),))

    @staticmethod
    def _coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar.from_fraction(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")

    # -- predicates ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_rational(self) -> bool:
        # the denominator is monic, so a constant one is 1
        return len(self.num) <= 1 and len(self.den) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not a rational constant")
        return self.num[0] if self.num else Fraction(0)

    def evaluate(self, sigma: Fraction | int) -> Fraction:
        """Specialize s to the rational number sigma."""
        sigma = Fraction(sigma)
        d = _peval(self.den, sigma)
        if d == 0:
            raise ZeroDivisionError(f"denominator of {self} vanishes at s={sigma}")
        return _peval(self.num, sigma) / d

    # -- arithmetic ----------------------------------------------------
    # The shortcuts below build results that are canonical by construction
    # and skip __init__ and its gcd: a zero operand; two rational constants,
    # combined as Fractions; a polynomial added to n/d, giving (n + p*d)/d;
    # a product of polynomials; a product with, or quotient by, a constant.
    def __add__(self, other):
        a, b = self, self._coerce(other)
        if not a.num:
            return b
        if not b.num:
            return a
        if len(a.den) == 1 and len(b.den) == 1:
            if len(a.num) == 1 and len(b.num) == 1:
                return Scalar.from_fraction(a.num[0] + b.num[0])
            return Scalar._canonical(_padd(a.num, b.num))
        if len(b.den) == 1:
            a, b = b, a
        if len(a.den) == 1:
            return Scalar._canonical(_padd(_pmul(a.num, b.den), b.num), b.den)
        return Scalar(_padd(_pmul(a.num, b.den), _pmul(b.num, a.den)), _pmul(a.den, b.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._canonical(_pneg(self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        a, b = self, self._coerce(other)
        if not a.num or not b.num:
            return ZERO
        if len(b.num) == 1 and len(b.den) == 1:
            a, b = b, a
        if len(a.num) == 1 and len(a.den) == 1:
            c = a.num[0]
            return b if c == 1 else Scalar._canonical(tuple([c * x for x in b.num]), b.den)
        if len(a.den) == 1 and len(b.den) == 1:
            return Scalar._canonical(_pmul(a.num, b.num))
        return Scalar(_pmul(a.num, b.num), _pmul(a.den, b.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero in Q(s)")
        if len(other.num) == 1 and len(other.den) == 1:
            c = other.num[0]
            return self if c == 1 else Scalar._canonical(tuple([x / c for x in self.num]), self.den)
        return Scalar(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        out, base, e = ONE, self, exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.as_fraction() == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # equal to the hash of the int or Fraction a rational scalar equals
        if self.is_rational:
            return hash(self.as_fraction())
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if self.den == _P_ONE:
            return _pstr(self.num)
        return f"{_wrap(_pstr(self.num))}/{_wrap(_pstr(self.den))}"

    def __repr__(self):
        return f"Scalar({self})"


_SIMPLE_TOKEN = re.compile(r"-?\d+(/\d+)?$|-?s(\^\d+)?$")


def _wrap(text: str) -> str:
    return text if _SIMPLE_TOKEN.match(text) else f"({text})"


ZERO = Scalar(_P_ZERO)
ONE = Scalar.from_fraction(1)
S = Scalar((Fraction(0), Fraction(1)))


# -- parsing ------------------------------------------------------------

class ScalarParseError(ValueError):
    """Raised for malformed scalar expressions."""


# Largest exponent, and largest degree of any power, sum, product or quotient,
# that the parser builds.  Far above the degrees of real input.  The cost of
# polynomial arithmetic grows at least with the square of the degree, and an
# exponent makes the degree grow with the length of the string, so without a
# cap a short string such as "(s+1)^99999999" would not finish.
MAX_DEGREE = 32

_TOKEN = re.compile(r"\s*(?:(\d+)|(s)|([+\-*/^()]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ScalarParseError(f"unexpected character {text[pos:].lstrip()[0]!r} at position {pos}")
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("s", "s", m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos][:2] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, message):
        raise ScalarParseError(f"{message} in {self.text!r}")

    def integer(self, token: int) -> int:
        """The integer literal at token index ``token``; one longer than
        Python's digit limit for int() is a located parse error."""
        try:
            return int(self.tokens[token][1])
        except ValueError:
            self.fail(f"integer literal above the digit limit at position {self.tokens[token][2]}")

    def bound(self, degree: int, token: int):
        """Reject a result of the given degree built at token index ``token``."""
        if degree > MAX_DEGREE:
            self.fail(f"exponent or degree above {MAX_DEGREE} at position {self.tokens[token][2]}")

    def expr(self) -> Scalar:
        value = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            token = self.pos
            _, op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
            self.bound(_degree(value), token)
        return value

    def term(self) -> Scalar:
        value = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            token = self.pos
            _, op = self.take()
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
            self.bound(_degree(value), token)
        return value

    def unary(self) -> Scalar:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary()
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Scalar:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, text = self.take()
            if kind != "int":
                self.fail("exponent must be a nonnegative integer")
            exponent = self.integer(self.pos - 1)
            self.bound(max(exponent, _degree(base) * exponent), self.pos - 1)
            return base ** exponent
        return base

    def atom(self) -> Scalar:
        kind, text = self.take()
        if kind == "int":
            return Scalar.from_fraction(self.integer(self.pos - 1))
        if kind == "s":
            return S
        if (kind, text) == ("op", "("):
            value = self.expr()
            if self.take() != ("op", ")"):
                self.fail("missing closing parenthesis")
            return value
        self.fail(f"unexpected token {text!r}" if text else "unexpected end of input")


def _degree(x: Scalar) -> int:
    return max(len(x.num), len(x.den)) - 1


def scalar_parse(text: str) -> Scalar:
    """Parse an expression in integers, 's', '+ - * / ^' and parentheses.

    An exponent, or an intermediate result of degree, above ``MAX_DEGREE``
    raises ScalarParseError naming its position."""
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarParseError("empty scalar expression")
    parser = _Parser(tokens, text)
    value = parser.expr()
    if parser.pos != len(tokens):
        parser.fail(f"trailing input from token {parser.pos}")
    return value


# -- vectors ------------------------------------------------------------

Vector = tuple[Scalar, ...]


def vec(entries: Iterable) -> Vector:
    return tuple([e if isinstance(e, Scalar) else Scalar._coerce(e) for e in entries])


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple([ONE if j == i else ZERO for j in range(n)])


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple([x + y for x, y in zip(a, b, strict=True)])


def vec_scale(c: Scalar, a: Vector) -> Vector:
    return tuple([c * x for x in a])


def vec_is_zero(a: Vector) -> bool:
    return all(x.is_zero for x in a)


def bilinear(tensor: Sequence[Sequence[Vector]], x: Vector, y: Vector) -> Vector:
    """sum_{i,j} x_i y_j tensor[i][j]: the bilinear map taking the basis
    pair (e_i, e_j) to tensor[i][j]."""
    out = [ZERO] * len(tensor)
    for i, xi in enumerate(x):
        if xi.is_zero:
            continue
        for j, yj in enumerate(y):
            value = tensor[i][j]
            if yj.is_zero or vec_is_zero(value):
                continue
            c = xi * yj
            for m, t in enumerate(value):
                if not t.is_zero:
                    out[m] = out[m] + c * t
    return tuple(out)


# -- matrices -----------------------------------------------------------

class ScalarMatrix:
    """Immutable rectangular matrix with Scalar entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = tuple([tuple([e if isinstance(e, Scalar) else Scalar._coerce(e) for e in row])
                      for row in entries])
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else 0)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarMatrix is immutable")

    @classmethod
    def _of_rows(cls, rows: tuple[Vector, ...], cols: int) -> "ScalarMatrix":
        """The matrix with the given rows, which must be tuples of ``cols``
        Scalars; nothing is checked or coerced."""
        out = object.__new__(cls)
        object.__setattr__(out, "entries", rows)
        object.__setattr__(out, "rows", len(rows))
        object.__setattr__(out, "cols", cols)
        return out

    @classmethod
    def identity(cls, n: int) -> "ScalarMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ScalarMatrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    def column(self, j: int) -> Vector:
        return tuple([row[j] for row in self.entries])

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def matmul(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if a.is_zero:
                        continue
                    acc = acc + a * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return ScalarMatrix(out)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        out = []
        for i in range(self.rows):
            acc = ZERO
            for k in range(self.cols):
                a = self.entries[i][k]
                if not a.is_zero and not v[k].is_zero:
                    acc = acc + a * v[k]
            out.append(acc)
        return tuple(out)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        work = [list(row) for row in self.entries]
        n = self.rows
        sign = 1
        out = ONE
        for c in range(n):
            pivot = next((r for r in range(c, n) if not work[r][c].is_zero), None)
            if pivot is None:
                return ZERO
            if pivot != c:
                work[c], work[pivot] = work[pivot], work[c]
                sign = -sign
            p = work[c][c]
            out = out * p
            for r in range(c + 1, n):
                f = work[r][c] / p
                if f.is_zero:
                    continue
                for j in range(c, n):
                    work[r][j] = work[r][j] - f * work[c][j]
        return out if sign > 0 else -out

    def inverse(self) -> "ScalarMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        rows = tuple([row + unit_vector(n, i) for i, row in enumerate(self.entries)])
        result = rref(ScalarMatrix._of_rows(rows, 2 * n))
        if result.rank < n or result.pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular over Q(s)")
        return ScalarMatrix([result.reduced.entries[i][n:] for i in range(n)])

    def evaluate(self, sigma: Fraction | int) -> list[list[Fraction]]:
        return [[e.evaluate(sigma) for e in row] for row in self.entries]

    def __eq__(self, other):
        return isinstance(other, ScalarMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ScalarMatrix({self.rows}x{self.cols})"


class RrefResult(NamedTuple):
    rank: int
    pivots: tuple[int, ...]
    reduced: ScalarMatrix


def rref(m: ScalarMatrix) -> RrefResult:
    """Unique reduced row echelon form over Q(s).

    Each work row is a dict ``{col: value}`` of its nonzero entries, built
    in the scan that decides whether every entry is a rational constant.
    A matrix of rational constants is eliminated in ``Fraction``s; since
    the RREF is unique, the result equals the one over Q(s).  Either way
    the same loop runs: the pivot of column c is the first remaining row
    with c among its keys, a row update walks the pivot row's items, and
    entries that cancel are deleted.  The result is dense.
    """
    work: list[dict] = []
    rational = True
    for row in m.entries:
        nonzero = {j: e for j, e in enumerate(row) if e.num}
        if rational:
            rational = all([e.is_rational for e in nonzero.values()])
        work.append(nonzero)
    zero = _F_ZERO if rational else ZERO
    if rational:
        work = [{j: e.num[0] for j, e in row.items()} for row in work]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if c in work[i]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        p = prow[c]
        if p != 1:
            for j in prow:
                prow[j] = prow[j] / p
        support = list(prow.items())
        for i in range(nrows):
            row = work[i]
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, x in support:
                y = row.get(j, zero) - f * x
                if y:
                    row[j] = y
                else:
                    del row[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    reduced = []
    for row in work:
        dense = [ZERO] * ncols
        for j, x in row.items():
            dense[j] = Scalar._canonical((x,)) if rational else x
        reduced.append(tuple(dense))
    return RrefResult(r, tuple(pivots), ScalarMatrix._of_rows(tuple(reduced), ncols))


def kernel(m: ScalarMatrix) -> "Subspace":
    """RREF basis of the right null space of m over Q(s), from one ``rref``.

    m is reduced with its columns reversed, and each pivot q maps back to
    the original column p = n - 1 - q.  Row r of that RREF is then nonzero
    only on original columns <= p_r.  So for each free column f the vector
    e_f - sum_r R[r][f] e_{p_r} has its leading 1 at f, zeros on every other
    free column, and its other nonzeros on pivot columns right of f: taken
    in increasing f these vectors already form the RREF basis.
    """
    n = m.cols
    result = rref(ScalarMatrix._of_rows(tuple([row[::-1] for row in m.entries]), n))
    pivots = [n - 1 - q for q in result.pivots]
    basis = []
    for f in sorted(set(range(n)).difference(pivots)):
        v = [ZERO] * n
        v[f] = ONE
        for row, p in zip(result.reduced.entries, pivots):
            v[p] = -row[n - 1 - f]
        basis.append(tuple(v))
    return Subspace._of_basis(n, tuple(basis))


# -- subspaces ----------------------------------------------------------

class Subspace:
    """Subspace of Q(s)^n, stored as the unique RREF basis of its span."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence]):
        rows = tuple([vec(v) for v in vectors])
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("vector length does not match ambient dimension")
        result = rref(ScalarMatrix._of_rows(rows, ambient_dim))
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", result.reduced.entries[:result.rank])

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _of_basis(cls, ambient_dim: int, basis: tuple[Vector, ...]) -> "Subspace":
        """The subspace whose RREF basis is ``basis``: tuples of ``ambient_dim``
        Scalars that must already be in RREF.  Nothing is checked or reduced."""
        out = object.__new__(cls)
        object.__setattr__(out, "ambient_dim", ambient_dim)
        object.__setattr__(out, "basis", basis)
        return out

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls._of_basis(n, ())

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls._of_basis(n, tuple([unit_vector(n, i) for i in range(n)]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, v: Sequence) -> bool:
        v = list(vec(v))
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        for row in self.basis:
            pivot = next(j for j, e in enumerate(row) if not e.is_zero)
            c = v[pivot]
            if c.is_zero:
                continue
            for j in range(self.ambient_dim):
                v[j] = v[j] - c * row[j]
        return all(e.is_zero for e in v)

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_vector(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: in the RREF of the rows [a | a] and [b | 0], the rows
        # with pivot in the right half carry the RREF basis of A ∩ B there.
        self._check(other)
        n = self.ambient_dim
        rows = tuple([a + a for a in self.basis] + [b + zero_vector(n) for b in other.basis])
        rank, pivots, reduced = rref(ScalarMatrix._of_rows(rows, 2 * n))
        start = sum(1 for p in pivots if p < n)
        return Subspace._of_basis(n, tuple([row[n:] for row in reduced.entries[start:rank]]))

    def is_rational(self) -> bool:
        return all(e.is_rational for row in self.basis for e in row)

    def _check(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q(s)^{self.ambient_dim})"


def extend_basis(base: Sequence[Sequence], candidates: Sequence[Vector]) -> list[Vector]:
    """The candidates that greedily extend the span of ``base``: scanning
    in order, keep each candidate outside the span of ``base`` and the
    candidates kept before it.

    One RREF of the matrix whose columns are the base vectors followed by
    the candidates does the whole scan.  A column is a pivot column iff it
    lies outside the span of all the columns before it.  A candidate lies
    outside the span of ``base`` and all earlier candidates iff it lies
    outside the span of ``base`` and the earlier kept ones, because every
    skipped candidate lies in the latter span.  So the candidates whose
    columns are pivots are exactly the greedy choice.  ``base`` need not be
    independent.
    """
    if not candidates:
        return []
    columns = list(base) + list(candidates)
    matrix = ScalarMatrix([[col[r] for col in columns] for r in range(len(columns[0]))])
    offset = len(base)
    return [candidates[c - offset] for c in rref(matrix).pivots if c >= offset]


def _den_lcm(entries: Iterable[Scalar]) -> Coeffs:
    out = _P_ONE
    for e in entries:
        g = _pgcd(out, e.den)
        out = _pdiv_exact(_pmul(out, e.den), g)
    return out


def primitive_factor(entries: Sequence[Scalar]) -> Scalar:
    """The factor f in Q(s) that makes the nonzero ``entries`` integer
    polynomials with content 1, the first with a positive leading
    coefficient."""
    factor = Scalar(_den_lcm(entries))
    gcd_poly: Coeffs = ()
    for e in entries:
        gcd_poly = _pgcd(gcd_poly, (factor * e).num)
    if len(gcd_poly) > 1:
        factor = factor / Scalar(gcd_poly)
    content, _ = _pprimitive([c for e in entries for c in (factor * e).num])
    factor = factor / Scalar.from_fraction(content)
    return -factor if (factor * entries[0]).num[-1] < 0 else factor


def q_decompose(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Q-span of the per-degree rational coefficient vectors.

    Each vector is cleared of denominators and written as sum_d s^d * w_d
    with w_d in Q^n; the span of all the w_d is the smallest subspace
    defined over Q that contains the span of the input.
    """
    rows = []
    for v in vectors:
        v = vec(v)
        if len(v) != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        clear = Scalar(_den_lcm(v))
        cleared = [clear * e for e in v]
        maxdeg = max((len(e.num) for e in cleared), default=0)
        for d in range(maxdeg):
            w = [e.num[d] if d < len(e.num) else Fraction(0) for e in cleared]
            if any(w):
                rows.append([Scalar.from_fraction(c) for c in w])
    return Subspace(ambient_dim, rows)


def rational_subspace(space: Subspace) -> Subspace:
    """All vectors of Q^n lying in the given Q(s)-subspace, as a Q-basis.

    A vector x is in the span iff reducing it against the RREF basis leaves
    zero, and the reduction coefficients are forced to be the pivot
    coordinates of x.  Requiring the residual to vanish identically in s
    gives rational linear conditions on x, one per power of s and
    non-pivot column.
    """
    n = space.ambient_dim
    if space.dim == 0:
        return Subspace.zero(n)
    if space.is_rational():
        return space
    pivots = [next(j for j, e in enumerate(row) if not e.is_zero) for row in space.basis]
    pivot_set = set(pivots)
    rows = []
    for j in range(n):
        if j in pivot_set:
            continue
        column = [row[j] for row in space.basis]
        clear = Scalar(_den_lcm(column))
        cleared = [clear * e for e in column]
        maxdeg = max([len(clear.num)] + [len(e.num) for e in cleared])
        for d in range(maxdeg):
            coeffs = [Fraction(0)] * n
            coeffs[j] = clear.num[d] if d < len(clear.num) else Fraction(0)
            for i, e in enumerate(cleared):
                coeffs[pivots[i]] -= e.num[d] if d < len(e.num) else Fraction(0)
            if any(coeffs):
                rows.append([Scalar.from_fraction(c) for c in coeffs])
    if not rows:
        return space
    return kernel(ScalarMatrix(rows))


# -- integer lattices ----------------------------------------------------

def hnf_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """Row Hermite normal form of rational rows cleared of denominators.

    Returns the least common denominator d of the entries and the HNF of
    the integer rows d * row: echelon, positive pivots, entries above each
    pivot reduced into [0, pivot).
    """
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    rows = [[int(x * scale) for x in row] for row in rows]
    if not rows:
        return scale, []
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][c]))
            base = nz[0]
            for i in nz[1:]:
                q = rows[i][c] // rows[base][c]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[base])]
        nz = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not nz:
            continue
        rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return scale, rows[:r]


class IntLattice:
    """Full-rank lattice in R^k with a canonical triangular basis.

    The basis rows form the Hermite normal form of the generator matrix
    (rescaled if the generators were rational rather than integral), so two
    equal lattices always carry identical bases.  Row i has its pivot on
    the diagonal, which is positive.
    """

    __slots__ = ("rank", "basis")

    def __init__(self, rank: int, basis: tuple[tuple[Fraction, ...], ...]):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("IntLattice is immutable")

    def is_standard(self) -> bool:
        return all(self.basis[i][j] == (1 if i == j else 0)
                   for i in range(self.rank) for j in range(self.rank))

    def contains(self, point: Sequence[Fraction | int]) -> bool:
        v = [Fraction(x) for x in point]
        if len(v) != self.rank:
            raise ValueError("point dimension mismatch")
        for i in range(self.rank):
            if v[i] == 0:
                continue
            q = v[i] / self.basis[i][i]
            if q.denominator != 1:
                return False
            for j in range(self.rank):
                v[j] -= q * self.basis[i][j]
        return all(x == 0 for x in v)

    def reduce(self, point: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """Canonical representative of point modulo the lattice."""
        v = [Fraction(x) for x in point]
        if len(v) != self.rank:
            raise ValueError("point dimension mismatch")
        for i in range(self.rank):
            q = math.floor(v[i] / self.basis[i][i])
            if q:
                for j in range(self.rank):
                    v[j] -= q * self.basis[i][j]
        return tuple(v)

    def __eq__(self, other):
        return (isinstance(other, IntLattice)
                and self.rank == other.rank and self.basis == other.basis)

    def __hash__(self):
        return hash((self.rank, self.basis))

    def __repr__(self):
        return f"IntLattice(rank {self.rank})"


def hnf_lattice(generators: Sequence[Sequence[Fraction | int]]) -> IntLattice:
    """Canonical basis of the Z-module spanned by rational generators.

    The generators must span R^k; a rank-deficient family is rejected
    because the construction downstream needs a full lattice.
    """
    gens = [[Fraction(x) for x in g] for g in generators]
    if not gens:
        raise ValueError("lattice not full rank")
    k = len(gens[0])
    if any(len(g) != k for g in gens):
        raise ValueError("generators of unequal length")
    scale, hnf = hnf_rows(gens)
    if len(hnf) < k:
        raise ValueError("lattice not full rank")
    basis = tuple([tuple([Fraction(e, scale) for e in row]) for row in hnf])
    return IntLattice(k, basis)
