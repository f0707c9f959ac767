"""Checks on a report that do not use ``nilfol`` for the quantity checked.

* Betti numbers of a nilpotent Lie algebra: b_0 = 1, Poincare duality
  b_k = b_{n-k} (nilpotent algebras are unimodular), and Euler
  characteristic sum (-1)^k b_k = 0.
* b_1 = n - rank of the bracket map from the exterior square to g,
  computed in plain ``Fraction`` arithmetic from the generator's model of
  the document at rational samples of s.  The rank over Q(s) is the
  largest rank at any sample, so the maximum over a few samples is exact
  unless every sample is a root of the same minors.
* The canonical text of the report equals the expected text recorded
  from the library at the commit that defined the benchmark.
"""

from __future__ import annotations

from fractions import Fraction

from docs import Doc, poly_eval

SAMPLES = (Fraction(17, 12), Fraction(-5, 7), Fraction(29, 3))


def betti_violations(betti: list[int]) -> list[str]:
    """Problems with a Betti vector (b_0, ..., b_n) of a nilpotent algebra."""
    n = len(betti) - 1
    out = []
    if betti[0] != 1:
        out.append(f"b_0 = {betti[0]}, expected 1")
    for k in range(n + 1):
        if betti[k] != betti[n - k]:
            out.append(f"duality: b_{k} = {betti[k]} but b_{n - k} = {betti[n - k]}")
            break
    euler = sum((-1) ** k * b for k, b in enumerate(betti))
    if n >= 1 and euler != 0:
        out.append(f"Euler characteristic {euler}, expected 0")
    return out


def frac_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def b1_oracle(doc: Doc) -> int:
    """n minus the generic rank of the bracket map (e_i ^ e_j) -> [e_i, e_j]."""
    if not doc.brackets:
        return doc.dim
    rank = 0
    for sigma in SAMPLES:
        rows = [[poly_eval(value.get(m, ()), sigma) for m in range(doc.dim)]
                for value in doc.brackets.values()]
        rank = max(rank, frac_rank(rows))
    return doc.dim - rank


def report_problems(betti: list[int], doc: Doc) -> list[str]:
    out = betti_violations(betti)
    expected_b1 = b1_oracle(doc)
    if len(betti) > 1 and betti[1] != expected_b1:
        out.append(f"b_1 = {betti[1]}, but n - rank[g,g] = {expected_b1}")
    return out


def text_mismatch(actual: str, expected: str) -> str | None:
    """None when equal, else the first differing line of each side."""
    if actual == expected:
        return None
    a, e = actual.splitlines(), expected.splitlines()
    for t, (x, y) in enumerate(zip(a, e)):
        if x != y:
            return f"line {t + 1}: got {x!r}, expected {y!r}"
    return f"got {len(a)} lines, expected {len(e)}"
