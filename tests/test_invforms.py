"""Tests for the invariant exterior algebra and the basic subcomplex."""

import math
import random
from fractions import Fraction

import pytest

from nilfol.exactalg import ONE, S, Subspace, ZERO, kernel, unit_vector, vec
from nilfol.invforms import (
    InvForm,
    basic_forms,
    basic_h1,
    ce_d,
    cohomology,
    d_matrix,
    form_to_vector,
    multi_indices,
    primitive_form,
    vector_to_form,
)
from nilfol.liealg import LeafSubalgebra, LieAlgebra

from helpers import (
    d_oracle,
    eval_form,
    kernel_intersection,
    random_basis_change,
    random_form,
    random_subalgebra,
    random_two_step_algebra,
    specialize_algebra,
    specialize_vector,
    sympy_rank,
    two_pass_kernel,
)

from test_liealg import abelian, heisenberg3, iwasawa9, iwasawa_leaf


def ef(n, *indices):
    return InvForm.basis_form(n, tuple(i - 1 for i in indices))


class TestWedgeInterior:
    def test_square_is_zero(self):
        e1 = ef(9, 1)
        assert e1.wedge(e1).is_zero

    def test_interior_of_wedge(self):
        # i_{e1}(e^1 ^ e^4) = e^4
        form = ef(9, 1).wedge(ef(9, 4))
        assert form.interior(unit_vector(9, 0)) == ef(9, 4)

    def test_iwasawa_contraction_vanishes(self):
        # v1 = -s e2 + e3, w = (e^2 + s e^3) ^ e^5; w(v1, .) = 0
        v1 = vec([0, -S, ONE, 0, 0, 0, 0, 0, 0])
        omega1 = ef(9, 2).add(ef(9, 3).scale(S))
        assert omega1.wedge(ef(9, 5)).interior(v1).is_zero

    def test_graded_commutativity(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 5)
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            a, b = random_form(rng, n, p), random_form(rng, n, q)
            lhs = a.wedge(b)
            rhs = b.wedge(a)
            if (p * q) % 2:
                rhs = rhs.scale(-ONE)
            assert lhs == rhs

    def test_wedge_associative(self):
        rng = random.Random(32)
        for _ in range(30):
            n = rng.randint(3, 5)
            a = random_form(rng, n, 1)
            b = random_form(rng, n, 1)
            c = random_form(rng, n, rng.randint(0, 2))
            assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    def test_interior_antiderivation(self):
        rng = random.Random(33)
        for _ in range(30):
            n = rng.randint(2, 5)
            p = rng.randint(1, 2)
            q = rng.randint(1, 2)
            a, b = random_form(rng, n, p), random_form(rng, n, q)
            v = tuple(ONE if i % 2 else S for i in range(n))
            lhs = a.wedge(b).interior(v)
            rhs = a.interior(v).wedge(b)
            second = a.wedge(b.interior(v))
            rhs = rhs.add(second if p % 2 == 0 else second.scale(-ONE))
            assert lhs == rhs

    def test_evaluation_against_determinant(self):
        rng = random.Random(34)
        for _ in range(20):
            n = rng.randint(2, 4)
            k = rng.randint(1, 2)
            a = random_form(rng, n, k)
            b = random_form(rng, n, 1)
            # shuffle evaluation of (a ^ b) on basis tuples
            import itertools
            for tup in itertools.combinations(range(n), k + 1):
                vectors = [unit_vector(n, i) for i in tup]
                direct = eval_form(a.wedge(b), vectors)
                total = ZERO
                for positions in itertools.combinations(range(k + 1), k):
                    rest = [t for t in range(k + 1) if t not in positions]
                    sign = (-1) ** sum(p - i for i, p in enumerate(positions))
                    term = eval_form(a, [vectors[p] for p in positions]) * \
                        eval_form(b, [vectors[r] for r in rest])
                    total = total + term if sign > 0 else total - term
                assert direct == total


class TestDifferential:
    def test_iwasawa_d_e6(self):
        g = iwasawa9()
        expected = ef(9, 1).wedge(ef(9, 4)).scale(-ONE).add(ef(9, 2).wedge(ef(9, 5)))
        assert ce_d(g, ef(9, 6)) == expected

    def test_iwasawa_closed_one_forms(self):
        g = iwasawa9()
        for i in (1, 2, 3, 4, 5):
            assert ce_d(g, ef(9, i)).is_zero
        for i in (6, 7, 8, 9):
            assert not ce_d(g, ef(9, i)).is_zero

    def test_d_squared_zero_on_e6(self):
        g = iwasawa9()
        assert ce_d(g, ce_d(g, ef(9, 6))).is_zero

    def test_d_squared_zero_random(self):
        rng = random.Random(35)
        for _ in range(40):
            g = random_two_step_algebra(rng)
            k = rng.randint(0, min(3, g.n - 1))
            a = random_form(rng, g.n, k)
            assert ce_d(g, ce_d(g, a)).is_zero

    def test_leibniz_rule(self):
        rng = random.Random(36)
        for _ in range(40):
            g = random_two_step_algebra(rng)
            p = rng.randint(0, 2)
            a = random_form(rng, g.n, p)
            b = random_form(rng, g.n, rng.randint(0, min(2, g.n - p)))
            lhs = ce_d(g, a.wedge(b))
            rhs = ce_d(g, a).wedge(b)
            second = a.wedge(ce_d(g, b))
            rhs = rhs.add(second if p % 2 == 0 else second.scale(-ONE))
            assert lhs == rhs

    def test_matches_alternating_sum_oracle(self):
        rng = random.Random(37)
        g = iwasawa9()
        for k in (1, 2):
            for _ in range(5):
                a = random_form(rng, 9, k)
                assert ce_d(g, a) == d_oracle(g, a)
        for _ in range(15):
            h = random_two_step_algebra(rng)
            a = random_form(rng, h.n, rng.randint(1, 2))
            assert ce_d(h, a) == d_oracle(h, a)


class TestCohomology:
    def test_iwasawa_h1(self):
        report = cohomology(iwasawa9(), 1)
        assert report.dim == 5
        reps = {primitive_form(r) for r in report.representatives}
        assert reps == {ef(9, i) for i in (1, 2, 3, 4, 5)}

    def test_abelian_binomials(self):
        g = abelian(4)
        for k in range(5):
            assert cohomology(g, k).dim == math.comb(4, k)

    def test_heisenberg(self):
        assert cohomology(heisenberg3(), 1).dim == 2
        assert cohomology(heisenberg3(), 2).dim == 2
        assert cohomology(heisenberg3(), 0).dim == 1
        assert cohomology(heisenberg3(), 3).dim == 1

    def test_representatives_are_closed_and_independent(self):
        g = iwasawa9()
        for k in (1, 2):
            report = cohomology(g, k)
            vectors = []
            for rep in report.representatives:
                assert ce_d(g, rep).is_zero
                vectors.append(form_to_vector(rep))
            assert Subspace(len(multi_indices(9, k)), vectors).dim == len(vectors)


class TestCohomologyAgainstSympy:
    """dim ker d_k and dim H^k = dim ker d_k - rank d_{k-1} against ranks of
    the d-matrices computed by sympy's DomainMatrix."""

    def _check(self, g):
        pytest.importorskip("sympy")
        n = g.n
        ranks = [sympy_rank(d_matrix(g, k)) for k in range(n)] + [0]
        for k in range(n + 1):
            forms = math.comb(n, k)
            if k < n:
                assert kernel(d_matrix(g, k)).dim == forms - ranks[k]
            expected = forms - ranks[k] - (ranks[k - 1] if k else 0)
            assert cohomology(g, k).dim == expected

    def test_iwasawa9(self):
        self._check(iwasawa9())

    def test_random_two_step_algebras(self):
        rng = random.Random(59)
        for _ in range(6):
            self._check(random_two_step_algebra(rng))


class TestBasicForms:
    def test_iwasawa_basic_one_forms(self):
        g = iwasawa9()
        leaf = iwasawa_leaf(g)
        space = basic_forms(g, leaf, 1)
        assert space.dim == 6
        expected = Subspace(9, [
            form_to_vector(ef(9, 1)),
            form_to_vector(ef(9, 4)),
            form_to_vector(ef(9, 5)),
            form_to_vector(ef(9, 2).add(ef(9, 3).scale(S))),
            form_to_vector(ef(9, 6).add(ef(9, 7).scale(S))),
            form_to_vector(ef(9, 8).add(ef(9, 9).scale(S))),
        ])
        assert space == expected

    def test_trivial_foliation_keeps_everything(self):
        g = heisenberg3()
        leaf = LeafSubalgebra(g, [])
        for k in (1, 2):
            assert basic_forms(g, leaf, k).dim == math.comb(3, k)

    def test_full_foliation_kills_one_forms(self):
        g = abelian(3)
        leaf = LeafSubalgebra(g, [unit_vector(3, i) for i in range(3)])
        assert basic_forms(g, leaf, 1).dim == 0

    def test_basic_subcomplex_closed_under_d(self):
        g = iwasawa9()
        leaf = iwasawa_leaf(g)
        for k in (1, 2):
            space = basic_forms(g, leaf, k)
            target = basic_forms(g, leaf, k + 1)
            for row in space.basis:
                image = ce_d(g, vector_to_form(9, k, row))
                assert target.contains_vector(form_to_vector(image))


class TestBasicH1:
    def test_iwasawa(self):
        g = iwasawa9()
        report = basic_h1(g, iwasawa_leaf(g))
        assert report.dim == 4
        omega1 = ef(9, 2).add(ef(9, 3).scale(S))
        assert omega1 in report.representatives
        for i in (1, 4, 5):
            assert ef(9, i) in report.representatives

    def test_kronecker(self):
        g = abelian(2)
        leaf = LeafSubalgebra(g, [(ONE, S)])
        report = basic_h1(g, leaf)
        assert report.dim == 1
        assert report.representatives[0] == ef(2, 1).scale(S).sub(ef(2, 2))

    def test_trivial_foliation_equals_h1(self):
        g = heisenberg3()
        report = basic_h1(g, LeafSubalgebra(g, []))
        assert report.dim == cohomology(g, 1).dim

    def test_injects_into_h1(self):
        # closed basic 1-forms lie in the span of the H^1 representatives
        g = iwasawa9()
        full = cohomology(g, 1)
        span = Subspace(9, [form_to_vector(r) for r in full.representatives])
        report = basic_h1(g, iwasawa_leaf(g))
        for rep in report.representatives:
            assert span.contains_vector(form_to_vector(rep))


    def test_one_dimensional_algebra(self):
        # d_1 has no rows here; the kernel still lives in Q(s)^1
        g = abelian(1)
        assert basic_h1(g, LeafSubalgebra(g, [])).dim == 1
        assert basic_h1(g, LeafSubalgebra(g, [(ONE,)])).dim == 0

    def test_one_kernel_equals_basic_closed_intersection(self):
        # closed forms vanishing on the leaf are exactly the closed basic ones
        rng = random.Random(183)
        g9 = iwasawa9()
        cases = [(g9, iwasawa_leaf(g9))]
        for i in range(6):
            g = random_two_step_algebra(rng, with_s=i % 2 == 0)
            if i % 4 == 1:
                g = random_basis_change(rng, g)
            cases += [(g, LeafSubalgebra(g, [])),
                      (g, LeafSubalgebra(g, random_subalgebra(rng, g).basis)),
                      (g, LeafSubalgebra(g, [unit_vector(g.n, j) for j in range(g.n)]))]
        for g, leaf in cases:
            space = basic_h1(g, leaf).space
            basic, d1 = basic_forms(g, leaf, 1), d_matrix(g, 1)
            assert space == basic.intersection(kernel(d1))
            assert space == kernel_intersection(basic, two_pass_kernel(d1))


class TestSpecializationOracle:
    def test_dims_stable_at_sample_points(self):
        g = iwasawa9()
        leaf = iwasawa_leaf(g)
        base = (cohomology(g, 1).dim, basic_forms(g, leaf, 1).dim,
                basic_h1(g, leaf).dim)
        for sigma in (Fraction(2), Fraction(3), Fraction(5)):
            gs = specialize_algebra(g, sigma)
            leafs = LeafSubalgebra(gs, [specialize_vector(v, sigma)
                                        for v in leaf.space.basis])
            spec = (cohomology(gs, 1).dim, basic_forms(gs, leafs, 1).dim,
                    basic_h1(gs, leafs).dim)
            assert spec == base


class TestPrimitiveForm:
    def test_clears_denominators(self):
        form = vector_to_form(2, 1, (ONE, -ONE / S))
        assert primitive_form(form) == vector_to_form(2, 1, (S, -ONE))

    def test_idempotent_and_scale_invariant(self):
        rng = random.Random(38)
        for _ in range(30):
            n = rng.randint(2, 4)
            a = random_form(rng, n, 1)
            if a.is_zero:
                continue
            p = primitive_form(a)
            assert primitive_form(p) == p
            assert primitive_form(a.scale(S + ONE)) == p
