"""Tests for exact Q(s) arithmetic and the linear algebra layer."""

import random
import time
from fractions import Fraction

import pytest

from nilfol.exactalg import (
    MAX_DEGREE,
    _pdiv_exact,
    _pgcd,
    _pmul,
    ONE,
    S,
    ZERO,
    IntLattice,
    Scalar,
    ScalarMatrix,
    ScalarParseError,
    Subspace,
    extend_basis,
    hnf_lattice,
    kernel,
    q_decompose,
    rational_subspace,
    rref,
    scalar_parse,
    unit_vector,
    vec,
)
from nilfol.invforms import d_matrix

from helpers import (
    euclid_gcd,
    frac_rank,
    greedy_extend,
    is_rref_basis,
    kernel_intersection,
    random_matrix,
    random_nonzero_scalar,
    random_poly,
    random_scalar,
    two_pass_kernel,
)
from test_liealg import iwasawa9


F = Fraction


class TestScalar:
    def test_parse_rational_literal(self):
        assert scalar_parse("3/2") == Scalar.from_fraction(F(3, 2))

    def test_parse_negated_variable(self):
        assert scalar_parse("-s") == -S

    def test_parse_gcd_reduction(self):
        # (s^2-1)/(s-1) reduces to s+1
        assert scalar_parse("(s^2-1)/(s-1)") == S + ONE

    def test_parse_precedence(self):
        assert scalar_parse("1+2*s^2") == ONE + Scalar.from_fraction(2) * S * S
        assert scalar_parse("-s^2") == -(S * S)
        assert scalar_parse("3/2*s") == Scalar.from_fraction(F(3, 2)) * S

    def test_parse_errors(self):
        for bad in ["", "s +", "2 **= 3", "(s", "s^s", "x"]:
            with pytest.raises(ScalarParseError):
                scalar_parse(bad)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            scalar_parse("1/(s-s)")
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_canonical_monic_denominator(self):
        x = scalar_parse("1/(2*s+2)")
        assert x.den[-1] == 1
        assert x == Scalar([F(1, 2)], [1, 1])

    def test_structural_equality_and_hash(self):
        a = scalar_parse("(s^2+2*s+1)/(s+1)")
        b = S + ONE
        assert a == b and hash(a) == hash(b)

    def test_hash_agrees_with_int_and_fraction(self):
        for value in [0, 1, -3, 12, F(1, 2), F(-7, 3), F(4, 2)]:
            x = Scalar.from_fraction(value)
            assert x == value and hash(x) == hash(value)
            assert len({x, value}) == 1
        assert len({ONE, 1, F(1)}) == 1 and len({ZERO, 0}) == 1

    def test_degree_capped(self):
        assert scalar_parse(f"s^{MAX_DEGREE}") == S ** MAX_DEGREE
        assert scalar_parse(f"s^{MAX_DEGREE}/s^{MAX_DEGREE}") == ONE
        for bad in ["s^99999999", "(s+1)^100000000", f"s^{MAX_DEGREE + 1}", "2^99999999",
                    f"(s^2+1)^{MAX_DEGREE // 2 + 1}", f"(1/s)^{MAX_DEGREE + 1}",
                    "*".join(["(s+1)^16"] * 5), "1" + "".join(f"/(s+{i})^16" for i in range(5)),
                    "+".join(f"1/(s+{i})^16" for i in range(5))]:
            start = time.perf_counter()
            with pytest.raises(ScalarParseError, match="at position"):
                scalar_parse(bad)
            assert time.perf_counter() - start < 1

    def test_evaluate(self):
        x = scalar_parse("(s^2+1)/(s-1)")
        assert x.evaluate(2) == F(5)
        with pytest.raises(ZeroDivisionError):
            x.evaluate(1)

    def test_str_round_trip(self):
        rng = random.Random(20240811)
        for _ in range(300):
            x = random_scalar(rng)
            assert scalar_parse(str(x)) == x

    def test_pow(self):
        assert S ** 3 == S * S * S
        assert (S + ONE) ** 0 == ONE
        assert S ** -1 == ONE / S


class TestFieldAxioms:
    def test_axioms_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (random_scalar(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + ZERO == a and a * ONE == a

    def test_inverses(self):
        rng = random.Random(8)
        for _ in range(200):
            a = random_nonzero_scalar(rng)
            assert a * (ONE / a) == ONE
            assert a + (-a) == ZERO

    def test_normalization_idempotent(self):
        rng = random.Random(9)
        for _ in range(200):
            a = random_scalar(rng)
            again = Scalar(a.num, a.den)
            assert again.num == a.num and again.den == a.den


class TestPolynomialGcd:
    """The primitive-PRS gcd against Euclid over Fraction coefficients."""

    def test_matches_euclid_on_seeded_pairs(self):
        rng = random.Random(41)
        for _ in range(150):
            common = random_poly(rng, 3)
            a = _pmul(common, random_poly(rng, 4))
            b = _pmul(common, random_poly(rng, 4))
            assert _pgcd(a, b) == euclid_gcd(a, b)
            c, d = random_poly(rng, 5), random_poly(rng, 5)
            assert _pgcd(c, d) == euclid_gcd(c, d)

    def test_large_coefficients_and_repeated_factors(self):
        rng = random.Random(42)
        for _ in range(20):
            common = _pmul(random_poly(rng, 2, span=10**6), random_poly(rng, 2))
            a = _pmul(_pmul(common, common), random_poly(rng, 3, span=10**4))
            b = _pmul(common, random_poly(rng, 3))
            assert _pgcd(a, b) == euclid_gcd(a, b)
            assert _pgcd(b, a) == euclid_gcd(a, b)

    def test_constants_zero_and_equal_inputs(self):
        rng = random.Random(43)
        for _ in range(30):
            a = random_poly(rng, 4)
            const = (F(rng.randint(1, 9), rng.randint(1, 9)),)
            assert _pgcd(a, const) == _pgcd(const, a) == euclid_gcd(a, const) == (1,)
            assert _pgcd(a, ()) == _pgcd((), a) == euclid_gcd(a, ())
            assert _pgcd(a, a) == euclid_gcd(a, a)
            assert _pgcd(a, a)[-1] == 1
        assert _pgcd((), ()) == euclid_gcd((), ()) == ()

    def test_exact_division(self):
        rng = random.Random(44)
        for _ in range(50):
            a, b = random_poly(rng, 4), random_poly(rng, 3)
            assert _pdiv_exact(_pmul(a, b), b) == a
        with pytest.raises(ArithmeticError):
            _pdiv_exact((F(1), F(0), F(1)), (F(1), F(1)))

    def test_arithmetic_stays_canonical(self):
        # the shortcuts of + - * / give what normalising in __init__ gives
        rng = random.Random(45)
        pool = [ZERO, ONE, -ONE, S, S * S + ONE]

        def draw():
            return random_scalar(rng) if rng.random() < 0.6 else rng.choice(pool)

        def normalised_sum(a, b):
            return Scalar(_padd_ref(_pmul(a.num, b.den), _pmul(b.num, a.den)),
                          _pmul(a.den, b.den))

        for _ in range(200):
            a, b = draw(), draw()
            neg_b = Scalar([-c for c in b.num], b.den)
            cases = [
                (a + b, normalised_sum(a, b)),
                (a - b, normalised_sum(a, neg_b)),
                (-b, neg_b),
                (a * b, Scalar(_pmul(a.num, b.num), _pmul(a.den, b.den))),
            ]
            if b:
                cases.append((a / b, Scalar(_pmul(a.num, b.den), _pmul(a.den, b.num))))
            for got, want in cases:
                assert (got.num, got.den) == (want.num, want.den)


def _padd_ref(a, b):
    out = [F(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _iwasawa_d1_matrix():
    # rows: 2-form coordinates, columns: the nine 1-forms; filled from the
    # structure constants [e1,e4]=e6, [e1,e5]=e8, [e2,e4]=e8, [e2,e5]=-e6,
    # [e3,e4]=e9, [e3,e5]=-e7 via d(e^m)(ei,ej) = -c^m_ij.
    import itertools

    pairs = list(itertools.combinations(range(9), 2))
    c = {(0, 3): {5: 1}, (0, 4): {7: 1}, (1, 3): {7: 1}, (1, 4): {5: -1},
         (2, 3): {8: 1}, (2, 4): {6: -1}}
    rows = []
    for (i, j) in pairs:
        row = [ZERO] * 9
        for m, val in c.get((i, j), {}).items():
            row[m] = Scalar.from_fraction(-val)
        rows.append(row)
    return ScalarMatrix(rows)


class TestRref:
    def test_identity(self):
        assert rref(ScalarMatrix.identity(3)).rank == 3

    def test_proportional_rows(self):
        m = ScalarMatrix([[ONE, S], [S, S * S]])
        result = rref(m)
        assert result.rank == 1
        assert result.pivots == (0,)

    def test_iwasawa_one_form_differential_rank(self):
        m = _iwasawa_d1_matrix()
        assert rref(m).rank == 4
        # brute-force oracle: rank of the numeric specialization at s=2,3,5
        for sigma in (2, 3, 5):
            assert frac_rank(m.evaluate(F(sigma))) == 4

    def test_rref_idempotent_and_unique(self):
        rng = random.Random(10)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            result = rref(m)
            again = rref(result.reduced)
            assert again.reduced == result.reduced
            assert again.rank == result.rank

    def test_rank_matches_specialized_rank(self):
        rng = random.Random(11)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            r = rref(m).rank
            for sigma in (F(17, 12), F(23, 7), F(101)):
                try:
                    numeric = m.evaluate(sigma)
                except ZeroDivisionError:
                    continue
                assert frac_rank(numeric) <= r


    def test_rational_and_q_s_paths_agree_on_a_shared_row_space(self):
        # P = s*I + Q is invertible over Q(s) (its determinant is monic in s),
        # so P*R has the row space of R; R takes the Fraction path, P*R not
        rng = random.Random(47)
        for _ in range(20):
            n, r = rng.randint(2, 6), rng.randint(1, 4)
            rational = ScalarMatrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                                     for _ in range(r)])
            p = ScalarMatrix([[(S if i == j else ZERO) + rng.randint(-2, 2) for j in range(r)]
                              for i in range(r)])
            mixed = p.matmul(rational)
            assert not all(e.is_rational for row in mixed.entries for e in row)
            assert rref(rational) == rref(mixed)
            assert Subspace(n, rational.entries) == Subspace(n, mixed.entries)
            assert kernel(rational) == kernel(mixed)


class TestRrefAgainstSympy:
    """Pivots and every reduced entry against sympy's DomainMatrix."""

    def _check(self, m: ScalarMatrix, rational: bool):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        s = sympy.Symbol("s")
        domain = sympy.QQ if rational else sympy.QQ.frac_field(s)

        def convert(x: Scalar):
            num, den = (sum(sympy.Rational(c.numerator, c.denominator) * s**i
                            for i, c in enumerate(cs)) for cs in (x.num, x.den))
            return domain.from_sympy(num / den)

        theirs, pivots = DomainMatrix([[convert(e) for e in row] for row in m.entries],
                                      (m.rows, m.cols), domain).rref()
        ours = rref(m)
        assert ours.pivots == tuple(pivots)
        assert [[convert(e) for e in row] for row in ours.reduced.entries] == theirs.to_list()

    @staticmethod
    def _low_rank(rows, cols, rank, entry):
        # rows x rank times rank x cols, so the rank is at most ``rank``
        left = ScalarMatrix([[entry() for _ in range(rank)] for _ in range(rows)])
        right = ScalarMatrix([[entry() for _ in range(cols)] for _ in range(rank)])
        return left.matmul(right)

    def test_rational_matrices(self):
        rng = random.Random(48)

        def entry():
            if rng.random() < 0.3:
                return ZERO
            return Scalar.from_fraction(F(rng.randint(-9, 9), rng.randint(1, 5)))

        for _ in range(25):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = self._low_rank(rows, cols, rng.randint(1, 4), entry)
            assert all(e.is_rational for row in m.entries for e in row)
            self._check(m, rational=True)

    def test_q_s_matrices(self):
        rng = random.Random(49)
        for _ in range(15):
            self._check(random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5)), rational=False)
        for _ in range(10):
            m = self._low_rank(rng.randint(2, 5), rng.randint(2, 5), rng.randint(1, 2),
                               lambda: random_scalar(rng, max_deg=1))
            self._check(m, rational=False)


    def test_zero_matrix(self):
        self._check(ScalarMatrix.zeros(4, 6), rational=True)

    def test_empty_rows_and_columns(self):
        rng = random.Random(50)
        for _ in range(15):
            rows, cols = rng.randint(2, 8), rng.randint(2, 8)
            empty_rows = set(rng.sample(range(rows), rng.randint(1, rows - 1)))
            empty_cols = set(rng.sample(range(cols), rng.randint(1, cols - 1)))
            m = ScalarMatrix([[ZERO if i in empty_rows or j in empty_cols
                               else random_nonzero_scalar(rng, max_deg=1)
                               for j in range(cols)] for i in range(rows)])
            self._check(m, rational=False)

    @staticmethod
    def _sparse_block_diagonal(rng, blocks, entry):
        # square blocks of size 1..4, about half filled, rows shuffled so
        # that pivots are found away from the diagonal
        sizes = [rng.randint(1, 4) for _ in range(blocks)]
        n = sum(sizes)
        rows = [[ZERO] * n for _ in range(n)]
        start = 0
        for size in sizes:
            for i in range(start, start + size):
                for j in range(start, start + size):
                    if rng.random() < 0.5:
                        rows[i][j] = entry()
            start += size
        rng.shuffle(rows)
        m = ScalarMatrix(rows)
        nonzero = sum(1 for row in m.entries for e in row if not e.is_zero)
        assert nonzero <= 0.05 * n * n
        return m

    def test_sparse_block_diagonal_rational(self):
        rng = random.Random(51)
        for _ in range(4):
            m = self._sparse_block_diagonal(
                rng, 24, lambda: Scalar.from_fraction(F(rng.randint(1, 9), rng.randint(1, 5))))
            self._check(m, rational=True)

    def test_sparse_block_diagonal_q_s(self):
        rng = random.Random(52)
        for _ in range(2):
            m = self._sparse_block_diagonal(rng, 20, lambda: random_nonzero_scalar(rng, max_deg=1))
            self._check(m, rational=False)

    def test_iwasawa9_four_form_differential(self):
        m = d_matrix(iwasawa9(), 4)
        assert (m.rows, m.cols) == (126, 126)
        self._check(m, rational=True)


class TestKernel:
    def test_identity_kernel_trivial(self):
        assert kernel(ScalarMatrix.identity(4)).dim == 0

    def test_forced_line(self):
        space = kernel(ScalarMatrix([[-S, ONE]]))
        assert space.dim == 1
        assert space.basis[0] == vec([1, 0]) or space.contains_vector((ONE, S))
        assert space.contains_vector((ONE, S))

    def test_zero_matrix(self):
        assert kernel(ScalarMatrix.zeros(3, 3)) == Subspace.full(3)

    def test_rank_nullity(self):
        rng = random.Random(12)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            assert kernel(m).dim == m.cols - rref(m).rank


class TestSingleElimination:
    """``kernel`` and ``intersection`` each run one elimination and return
    the RREF basis directly; the two-pass constructions are the reference."""

    @staticmethod
    def _matrices():
        rng = random.Random(181)
        for max_deg in (0, 1):
            kw = {"max_deg": max_deg, "allow_denominator": False}
            for _ in range(15):
                rows, cols = rng.randint(1, 5), rng.randint(1, 6)
                yield random_matrix(rng, rows, cols, max_deg=max_deg)
                # rank at most k, so the kernel is large
                k = rng.randint(1, cols)
                low = random_matrix(rng, rows, k, **kw).matmul(random_matrix(rng, k, cols, **kw))
                yield low
                yield ScalarMatrix(low.entries + low.entries)  # duplicated rows
                yield random_matrix(rng, cols + rng.randint(1, 3), cols, **kw)  # tall
        yield ScalarMatrix.zeros(3, 5)
        yield ScalarMatrix([[ONE, ZERO], [S, ONE], [ONE, S]])  # full column rank
        yield ScalarMatrix.identity(4)

    def test_kernel_equals_two_pass_kernel(self):
        for m in self._matrices():
            space = kernel(m)
            assert space.basis == two_pass_kernel(m).basis
            assert is_rref_basis(space.basis)
            for v in space.basis:
                assert all(x.is_zero for x in m.apply(v))

    def test_kernel_of_every_iwasawa9_differential(self):
        g = iwasawa9()
        for k in range(g.n + 1):
            m = d_matrix(g, k)
            space = kernel(m)
            assert space.basis == two_pass_kernel(m).basis, k
            assert is_rref_basis(space.basis)

    def test_kernel_of_one_row(self):
        # the free-column vectors of the unreversed RREF would be
        # (-1, 1, 0, 0), (0, 0, 1, 0), (-1, 0, 0, 1): not RREF
        m = ScalarMatrix([[ONE, ONE, ZERO, ONE]])
        assert kernel(m).basis == (vec([1, 0, 0, -1]), vec([0, 1, 0, -1]), vec([0, 0, 1, 0]))

    def test_intersection_equals_reference(self):
        rng = random.Random(182)
        for _ in range(60):
            n = rng.randint(1, 5)
            kw = {"max_deg": rng.choice((0, 1)), "allow_denominator": rng.random() < 0.3}

            def span(count):
                return Subspace(n, random_matrix(rng, count, n, **kw).entries)

            a, b = span(rng.randint(0, n)), span(rng.randint(0, n))
            inner = Subspace(n, a.basis[:rng.randint(0, a.dim)])
            bigger = a.sum(span(1))
            for x, y in ((a, b), (b, a), (a, a), (a, inner), (inner, a), (a, bigger),
                         (a, Subspace.zero(n)), (Subspace.full(n), a)):
                meet = x.intersection(y)
                assert meet.basis == kernel_intersection(x, y).basis
                assert is_rref_basis(meet.basis)
                assert x.contains(meet) and y.contains(meet)
            assert a.intersection(inner) == inner and a.intersection(bigger) == a

    def test_intersection_of_crossing_planes(self):
        # span(e1, e2) ∩ span(e2 + s e3, e1 + e3) is the line through (s, -1, 0)
        a = Subspace(3, [unit_vector(3, 0), unit_vector(3, 1)])
        b = Subspace(3, [(ZERO, ONE, S), (ONE, ZERO, ONE)])
        assert a.intersection(b) == Subspace(3, [(S, -ONE, ZERO)])
        assert a.intersection(b).basis == (vec([1, -1 / S, 0]),)


class TestSubspace:
    def test_sum_and_intersection_of_axes(self):
        a = Subspace(3, [unit_vector(3, 0)])
        b = Subspace(3, [unit_vector(3, 1)])
        assert a.sum(b).dim == 2
        assert a.intersection(b).dim == 0
        assert not a.contains(b)

    def test_equal_spaces(self):
        a = Subspace(2, [(ONE, S)])
        b = Subspace(2, [(S, S * S)])
        assert a == b
        assert a.intersection(b) == a and a.contains(b)

    def test_containment_intersection(self):
        a = Subspace(2, [(ONE, S)])
        full = Subspace.full(2)
        assert full.contains(a) and not a.contains(full)
        assert full.intersection(a) == a

    def test_dimension_formula(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 5)
            a = Subspace(n, [tuple(random_scalar(rng) for _ in range(n))
                             for _ in range(rng.randint(0, n))])
            b = Subspace(n, [tuple(random_scalar(rng) for _ in range(n))
                             for _ in range(rng.randint(0, n))])
            assert a.sum(b).dim + a.intersection(b).dim == a.dim + b.dim

    def test_extend_basis_matches_greedy(self):
        rng = random.Random(31)

        def entry():
            return random_scalar(rng, max_deg=1, allow_denominator=False)

        for _ in range(30):
            n = rng.randint(2, 4)
            base = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(0, n - 1))]
            fresh = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(0, n))]
            inside = [tuple(entry() * x for x in v) for v in base]
            candidates = fresh + inside + fresh[:2]
            rng.shuffle(candidates)
            space = Subspace(n, base)
            expected = greedy_extend(space, candidates)
            assert extend_basis(space.basis, candidates) == expected
            # a dependent base spans the same space, so the choice is the same
            assert extend_basis(base + base[:1], candidates) == expected
            assert space.sum(Subspace(n, expected)) == Subspace(n, base + candidates)


class TestQDecompose:
    def test_irrational_line_spreads_to_plane(self):
        # (-s, 1) splits into the coefficient layers (0, 1) and (-1, 0)
        space = q_decompose([(-S, ONE)], 2)
        assert space == Subspace.full(2)

    def test_rational_vector_fixed(self):
        space = q_decompose([vec([1, 2])], 2)
        assert space == Subspace(2, [vec([1, 2])])

    def test_monomial_scaling_dropped(self):
        space = q_decompose([(S * S, ZERO)], 2)
        assert space == Subspace(2, [vec([1, 0])])

    def test_contains_rational_members(self):
        rng = random.Random(14)
        for _ in range(60):
            n = rng.randint(2, 4)
            vectors = [tuple(random_scalar(rng) for _ in range(n))
                       for _ in range(rng.randint(1, 2))]
            space = Subspace(n, vectors)
            decomposed = q_decompose(space.basis, n)
            rational = rational_subspace(space)
            assert decomposed.contains(rational)
            for v in space.basis:
                assert decomposed.contains_vector(v)


class TestRationalSubspace:
    def test_mixed_direction_has_no_rational_member(self):
        e = lambda i: unit_vector(9, i)
        space = Subspace(9, [e(0), vec_e2_plus_s_e3()])
        rat = rational_subspace(space)
        assert rat == Subspace(9, [e(0)])

    def test_rational_space_unchanged(self):
        space = Subspace(3, [vec([1, 2, 0]), vec([0, 0, 5])])
        assert rational_subspace(space) == space

    def test_irrational_line_collapses(self):
        space = Subspace(2, [(ONE, S)])
        assert rational_subspace(space).dim == 0


def vec_e2_plus_s_e3():
    v = [ZERO] * 9
    v[1] = ONE
    v[2] = S
    return tuple(v)


class TestHnfLattice:
    def test_redundant_generator(self):
        lat = hnf_lattice([(1, 0), (0, 1), (1, 1)])
        assert lat.basis == ((F(1), F(0)), (F(0), F(1)))
        assert lat.is_standard()

    def test_gcd_in_rank_one(self):
        lat = hnf_lattice([(2,), (3,)])
        assert lat.basis == ((F(1),),)

    def test_rational_rescaling(self):
        lat = hnf_lattice([(F(1, 2), 0), (0, 1)])
        assert lat.basis == ((F(1, 2), F(0)), (F(0), F(1)))

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="lattice not full rank"):
            hnf_lattice([(1, 2), (2, 4)])

    def test_generator_order_irrelevant(self):
        rng = random.Random(15)
        for _ in range(40):
            k = rng.randint(1, 3)
            gens = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)]
                    for _ in range(k + rng.randint(0, 2))]
            try:
                lat = hnf_lattice(gens)
            except ValueError:
                continue
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert hnf_lattice(shuffled) == lat
            # appending an integer combination changes nothing
            coeffs = [rng.randint(-2, 2) for _ in gens]
            combo = [sum(a * g[i] for a, g in zip(coeffs, gens)) for i in range(k)]
            assert hnf_lattice(gens + [combo]) == lat

    def test_membership_and_reduction(self):
        lat = hnf_lattice([(1, 0), (0, F(1, 2))])
        assert lat.contains((3, F(5, 2)))
        assert not lat.contains((F(1, 2), 0))
        assert lat.reduce((F(7, 3), F(3, 4))) == (F(1, 3), F(1, 4))
