"""Seeded input documents for the benchmark workloads.

Every document is built twice over: as the JSON text that ``nilfol`` reads,
and as a plain model (polynomials in s as tuples of ``Fraction``
coefficients, constant term first) that the oracles in ``oracle.py``
evaluate without touching ``nilfol``.

Each workload is a fixed pool of documents.  Pool member ``i`` of a family
is generated from ``random.Random(f"{family}:{i}")``, so its expected
report can be recorded once (``record.py``) and checked on every run.  A
pass is the whole pool; the run's ``--seed`` decides the order.  Passes
that drew a subset of a larger pool made the latency percentiles depend on
which members were drawn (within a kind, report times differ up to 1.7x),
so the seed no longer picks the documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

Poly = tuple[Fraction, ...]


def poly(*coeffs) -> Poly:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_text(p: Poly) -> str:
    """Render in the nilfol scalar grammar: integers, s, + - * / ^."""
    parts = []
    for d, c in enumerate(p):
        if c == 0:
            continue
        mag = abs(c)
        var = "" if d == 0 else ("s" if d == 1 else f"s^{d}")
        body = str(mag) if not var else (var if mag == 1 else f"{mag}*{var}")
        if parts:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts) if parts else "0"


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


@dataclass(frozen=True)
class Doc:
    """A generated document: brackets are keyed by 0-based (i, j), i < j."""

    name: str
    dim: int
    brackets: dict[tuple[int, int], dict[int, Poly]]
    foliation: tuple[tuple[Poly, ...], ...]
    metric: tuple[tuple[Poly, ...], ...] | None = None

    def to_json(self) -> str:
        out = {
            "name": self.name,
            "dim": self.dim,
            "brackets": [
                {"i": i + 1, "j": j + 1,
                 "value": {str(m + 1): poly_text(c) for m, c in sorted(value.items())}}
                for (i, j), value in sorted(self.brackets.items())
            ],
            "foliation": [[poly_text(c) for c in row] for row in self.foliation],
        }
        if self.metric is not None:
            out["metric"] = [[poly_text(c) for c in row] for row in self.metric]
        return json.dumps(out, indent=1, sort_keys=True)


def _unit(n: int, i: int, c: Poly = (Fraction(1),)) -> tuple[Poly, ...]:
    return tuple(c if k == i else () for k in range(n))


def _identity_gram(n: int) -> list[list[Poly]]:
    return [[poly(1) if i == j else () for j in range(n)] for i in range(n)]


def _small_int(rng: random.Random, lo: int = 1, hi: int = 4) -> int:
    return rng.choice([-1, 1]) * rng.randint(lo, hi)


def _linear(rng: random.Random) -> Poly:
    """a + b*s with a, b nonzero and small."""
    return poly(Fraction(_small_int(rng), rng.randint(1, 3)), _small_int(rng, 1, 3))


def _s_gram(rng: random.Random, n: int) -> tuple[tuple[Poly, ...], ...]:
    """Identity plus a 2x2 block [[1+s^2, s], [s, 1+s^2]] on a random pair;
    its determinant 1 + s^2 + s^4 never vanishes."""
    gram = _identity_gram(n)
    a, b = sorted(rng.sample(range(n), 2))
    gram[a][a] = gram[b][b] = poly(1, 0, 1)
    gram[a][b] = gram[b][a] = poly(0, 1)
    return tuple(tuple(row) for row in gram)


# -- iwasawa9 --------------------------------------------------------------

def iwasawa9_docs() -> list[Doc]:
    """The complex Iwasawa manifold as a real 9-dimensional nilmanifold with
    the leaf spanned by -s e2 + e3, -s e6 + e7, -s e8 + e9; once with the
    identity metric and once with an s-dependent Gram matrix."""
    one = poly(1)
    brackets = {
        (0, 3): {5: one}, (0, 4): {7: one},
        (1, 3): {7: one}, (1, 4): {5: poly(-1)},
        (2, 3): {8: one}, (2, 4): {6: poly(-1)},
    }
    leaf = []
    for a, b in ((1, 2), (5, 6), (7, 8)):
        row = [()] * 9
        row[a], row[b] = poly(0, -1), one
        leaf.append(tuple(row))
    gram = _identity_gram(9)
    gram[1][1] = gram[2][2] = poly(1, 0, 1)
    gram[1][2] = gram[2][1] = poly(0, 1)
    gram[0][0] = poly(2)
    return [
        Doc("iwasawa9", 9, brackets, tuple(leaf)),
        Doc("iwasawa9-smetric", 9, brackets, tuple(leaf), tuple(tuple(r) for r in gram)),
    ]


# -- s-family ----------------------------------------------------------------

# Which structure constants of V x V -> Z are set, and whether each is a
# rational constant ("q") or a + b*s ("s").  The pattern is fixed so that
# every pool member does comparable work; the seed varies the values.
S_FAMILY_PATTERNS = {
    4: {(0, 1): {4: "s", 5: "q"}, (0, 2): {5: "s"}, (0, 3): {4: "q"},
        (1, 2): {4: "q", 5: "s"}, (1, 3): {5: "q"}, (2, 3): {4: "s"}},
    5: {(0, 1): {5: "s"}, (0, 2): {6: "q"}, (0, 4): {5: "q", 6: "s"},
        (1, 2): {5: "q"}, (1, 3): {6: "s"}, (2, 3): {5: "s", 6: "q"},
        (2, 4): {6: "q"}, (3, 4): {5: "s"}},
}


def s_family_doc(i: int) -> Doc:
    """2-step nilpotent algebra on V + Z (dim V = 4 or 5, dim Z = 2) whose
    structure constants mix rational values with a + b*s; the leaf is the
    bracket closure of an s-dependent vector and a rational one, and the
    metric depends on s."""
    rng = random.Random(f"s-family:{i}")
    nv = 4 + i % 2
    n = nv + 2
    brackets = {pair: {m: _linear(rng) if kind == "s" else poly(_small_int(rng))
                       for m, kind in value.items()}
                for pair, value in S_FAMILY_PATTERNS[nv].items()}
    v1 = [()] * n
    v1[0], v1[1] = poly(1), poly(0, _small_int(rng, 1, 2))
    v1[2] = poly(_small_int(rng, 1, 2))
    v2 = list(_unit(n, nv - 1))
    w = {}
    for (a, b), value in brackets.items():
        # [v1, v2] with v2 = e_{nv-1}; only v1's support 0, 1, 2 contributes
        if b == nv - 1 and a in (0, 1, 2):
            for m, c in value.items():
                w[m] = _padd(w.get(m, ()), _pmul(v1[a], c))
    leaf = [tuple(v1), tuple(v2)]
    if any(w.values()):
        leaf.append(tuple(w.get(m, ()) for m in range(n)))
    return Doc(f"s-family-{i}", n, brackets, tuple(leaf), _s_gram(rng, n))


def _padd(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * max(len(a), len(b))
    for k, c in enumerate(a):
        out[k] += c
    for k, c in enumerate(b):
        out[k] += c
    return poly(*out)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for x, ca in enumerate(a):
        for y, cb in enumerate(b):
            out[x + y] += ca * cb
    return poly(*out)


# -- small-batch ---------------------------------------------------------------
# Each kind has a fixed dimension, so a pass with a fixed number of documents
# per kind does the same amount of work on every seed.

def _kronecker(rng: random.Random, i: int, n: int) -> Doc:
    """Abelian R^n with a line whose rational hull is everything: the
    rank-0 Albanese case."""
    row = [poly(1), poly(_small_int(rng), _small_int(rng, 1, 2))]
    if n == 3:
        row.append(poly(0, 0, _small_int(rng, 1, 2)))
    return Doc(f"kronecker{n}-{i}", n, {}, (tuple(row),))


def _torus(rng: random.Random, i: int, n: int) -> Doc:
    """Abelian R^n with the zero foliation: the trivial-torus case."""
    return Doc(f"torus{n}-{i}", n, {}, (), _diag_gram(rng, n))


def _diag_gram(rng: random.Random, n: int) -> tuple[tuple[Poly, ...], ...]:
    return tuple(tuple(poly(rng.randint(1, 4)) if a == b else () for b in range(n))
                 for a in range(n))


def _heisenberg(rng: random.Random, i: int, n: int) -> Doc:
    """Heisenberg algebra of dim n = 3 or 5 with a leaf through an
    s-dependent horizontal vector."""
    z = n - 1
    brackets = {(2 * k, 2 * k + 1): {z: poly(_small_int(rng))} for k in range(z // 2)}
    row = [()] * n
    row[0], row[1] = poly(1), poly(_small_int(rng, 0, 2), _small_int(rng, 1, 2))
    return Doc(f"heisenberg{n}-{i}", n, brackets, (tuple(row),), _diag_gram(rng, n))


def _filiform(rng: random.Random, i: int, n: int, central: bool) -> Doc:
    """Filiform algebra of dim 4 ([e1, e_k] = c_k e_{k+1}) with a central
    or a horizontal leaf and an s-dependent metric."""
    brackets = {(0, k): {k + 1: poly(_small_int(rng))} for k in (1, 2)}
    if central:
        leaf = (_unit(n, 3, poly(0, 1)),)
    else:
        row = [()] * n
        row[1], row[3] = poly(1), poly(0, _small_int(rng, 1, 2))
        leaf = (tuple(row),)
    return Doc(f"filiform{'c' if central else 'h'}{n}-{i}", n, brackets, leaf, _s_gram(rng, n))


def _two_step(rng: random.Random, i: int, n: int) -> Doc:
    """2-step algebra of dim 5 (V = 3, Z = 2) with an s-dependent central
    leaf."""
    nv = 3
    brackets = {(a, b): {nv + (a + b) % 2: _linear(rng) if (a, b) == (0, 1)
                         else poly(_small_int(rng))}
                for a in range(nv) for b in range(a + 1, nv)}
    row = [()] * n
    row[3], row[4] = poly(1), poly(_small_int(rng), 1)
    return Doc(f"twostep{n}-{i}", n, brackets, (tuple(row),))


def _heisenberg_line(rng: random.Random, i: int, n: int) -> Doc:
    """Heisenberg algebra times R (dim 4) with the leaf e1 + (a + b*s) e4,
    whose rational hull is the plane of e1 and e4."""
    brackets = {(0, 1): {2: poly(_small_int(rng))}}
    row = [poly(1), (), (), poly(_small_int(rng), _small_int(rng, 1, 2))]
    return Doc(f"heisline{n}-{i}", n, brackets, (tuple(row),), _s_gram(rng, n))


SMALL_KINDS = (
    lambda rng, i: _kronecker(rng, i, 2),
    lambda rng, i: _kronecker(rng, i, 3),
    lambda rng, i: _torus(rng, i, 3),
    lambda rng, i: _torus(rng, i, 4),
    lambda rng, i: _heisenberg(rng, i, 3),
    lambda rng, i: _heisenberg(rng, i, 5),
    lambda rng, i: _filiform(rng, i, 4, True),
    lambda rng, i: _filiform(rng, i, 4, False),
    lambda rng, i: _heisenberg_line(rng, i, 4),
    lambda rng, i: _two_step(rng, i, 5),
)


def small_doc(i: int) -> Doc:
    kind = SMALL_KINDS[i % len(SMALL_KINDS)]
    return kind(random.Random(f"small-batch:{i}"), i)


# -- workloads -------------------------------------------------------------------

WORKLOADS = ("iwasawa9", "s-family", "small-batch")

# family -> (pool size, document constructor)
FAMILIES = {
    "s-family": (6, s_family_doc),
    "small-batch": (6 * len(SMALL_KINDS), small_doc),
}


def pool(workload: str) -> list[Doc]:
    """Every document of a workload, in pool order."""
    if workload == "iwasawa9":
        return iwasawa9_docs()
    size, make = FAMILIES[workload]
    return [make(i) for i in range(size)]


def passes(workload: str, seed: int) -> Iterator[list[Doc]]:
    """Endless sequence of passes, each the whole pool in an order drawn
    with ``random.Random(seed)``."""
    docs = pool(workload)
    rng = random.Random(seed)
    while True:
        yield rng.sample(docs, len(docs))
