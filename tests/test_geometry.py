"""Tests for connection, mean curvature, bundle-like and coclosed checks."""

import random
from fractions import Fraction

import pytest

from nilfol.exactalg import (
    ONE,
    S,
    Scalar,
    ScalarMatrix,
    Subspace,
    ZERO,
    unit_vector,
    vec,
    vec_is_zero,
)
from nilfol.geometry import (
    Metric,
    bundle_like_check,
    coclosed_check,
    is_metric_compatible,
    is_torsion_free,
    levi_civita,
    mean_curvature,
    orthogonal_complement,
)
from nilfol.invforms import InvForm, basic_forms, ce_d, vector_to_form
from nilfol.liealg import LeafSubalgebra

from helpers import (
    characteristic_form,
    hodge_star,
    random_form,
    random_fraction,
    random_two_step_algebra,
    random_vector,
)
from test_liealg import abelian, heisenberg3, iwasawa9, iwasawa_leaf

F = Fraction


def random_diag_metric(rng, n):
    return Metric(ScalarMatrix([[Scalar([F(rng.randint(1, 5))]) if i == j else ZERO
                                 for j in range(n)] for i in range(n)]))


class TestLeviCivita:
    def test_abelian_flat(self):
        g = abelian(3)
        conn = levi_civita(g, Metric.identity(3))
        assert all(vec_is_zero(conn.coeffs[i][j]) for i in range(3) for j in range(3))

    def test_iwasawa_leaf_geodesics(self):
        g = iwasawa9()
        conn = levi_civita(g, Metric.identity(9))
        for v in iwasawa_leaf(g).space.basis:
            assert vec_is_zero(conn.nabla(v, v))

    def test_heisenberg_half_twist(self):
        g = heisenberg3()
        conn = levi_civita(g, Metric.identity(3))
        # 2 g(nabla_{e1} e2, e3) = g([e1,e2], e3) = 1, other components vanish
        assert conn.coeffs[0][1] == vec([0, 0, F(1, 2)])

    def test_connection_identities(self):
        rng = random.Random(41)
        for _ in range(25):
            g = random_two_step_algebra(rng)
            metric = random_diag_metric(rng, g.n)
            conn = levi_civita(g, metric)
            assert is_torsion_free(g, conn)
            assert is_metric_compatible(g, conn, metric)

    def test_singular_metric_rejected(self):
        g = abelian(2)
        degenerate = Metric(ScalarMatrix([[ONE, ONE], [ONE, ONE]]))
        with pytest.raises(ValueError, match="singular"):
            levi_civita(g, degenerate)


class TestMeanCurvature:
    def test_iwasawa_taut(self):
        g = iwasawa9()
        result = mean_curvature(g, iwasawa_leaf(g), Metric.identity(9))
        assert result.vanishes and result.basic

    def test_abelian_zero(self):
        g = abelian(3)
        leaf = LeafSubalgebra(g, [vec([1, 2, 0])])
        assert mean_curvature(g, leaf, Metric.identity(3)).vanishes

    def test_heisenberg_skew_line(self):
        g = heisenberg3()
        leaf = LeafSubalgebra(g, [vec([1, 0, 1])])
        result = mean_curvature(g, leaf, Metric.identity(3))
        # kappa = -(1/2) e^2: the single leaf direction curves toward e2
        assert result.form == InvForm(3, 1, {(1,): Scalar([F(-1, 2)])})
        assert not result.vanishes

    def test_vanishes_on_leaf_directions(self):
        g = heisenberg3()
        leaf = LeafSubalgebra(g, [vec([1, 0, 1])])
        result = mean_curvature(g, leaf, Metric.identity(3))
        for v in leaf.space.basis:
            assert result.form.interior(v).is_zero

    def test_independent_of_leaf_basis(self):
        g = iwasawa9()
        leaf = iwasawa_leaf(g)
        metric = Metric.identity(9)
        base = mean_curvature(g, leaf, metric)
        rng = random.Random(42)
        rows = list(leaf.space.basis)
        for _ in range(5):
            mix = []
            for i in range(len(rows)):
                c = S if rng.random() < 0.5 else Scalar([F(rng.randint(1, 3))])
                mix.append(tuple(x + c * y for x, y in
                                 zip(rows[i], rows[(i + 1) % len(rows)])))
            scrambled = mean_curvature(g, leaf, metric, basis=tuple(mix))
            assert scrambled.form == base.form

    def test_heisenberg_basis_independence(self):
        g = heisenberg3()
        leaf = LeafSubalgebra(g, [vec([1, 0, 1])])
        metric = Metric.identity(3)
        base = mean_curvature(g, leaf, metric)
        doubled = mean_curvature(g, leaf, metric, basis=(vec([2, 0, 2]),))
        assert doubled.form == base.form


class TestBundleLike:
    def test_iwasawa_true(self):
        g = iwasawa9()
        assert bundle_like_check(g, iwasawa_leaf(g), Metric.identity(9)).holds

    def test_abelian_true(self):
        g = abelian(4)
        leaf = LeafSubalgebra(g, [vec([1, 0, 0, 0]), vec([0, 1, 1, 0])])
        assert bundle_like_check(g, leaf, Metric.identity(4)).holds

    def test_heisenberg_witness(self):
        g = heisenberg3()
        leaf = LeafSubalgebra(g, [vec([1, 0, 1])])
        result = bundle_like_check(g, leaf, Metric.identity(3))
        assert not result.holds
        v, X, Y, value = result.witness
        assert value == Scalar([F(-1)])
        # the violating transverse pair is {e2, e1 - e3} up to scaling
        pair = {X, Y}
        assert vec([0, 1, 0]) in pair
        assert any(not vec_is_zero(w) and w[0] == -w[2] for w in pair - {vec([0, 1, 0])})


class TestHodgeStar:
    def test_euclidean_complement(self):
        metric = Metric.identity(3)
        e3 = InvForm.basis_form(3, (2,))
        assert hodge_star(metric, e3) == InvForm.basis_form(3, (0, 1))

    def test_defining_identity(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(2, 4)
            metric = random_diag_metric(rng, n)
            k = rng.randint(0, n)
            a, b = random_form(rng, n, k), random_form(rng, n, k)
            lhs = a.wedge(hodge_star(metric, b))
            # <a, b> via inverse Gram minors
            ginv = metric.inverse()
            pairing = ZERO
            for ia, va in a.coeffs.items():
                for ib, vb in b.coeffs.items():
                    minor = ScalarMatrix([[ginv.entries[i][j] for j in ib] for i in ia])
                    det = minor.det() if k else ONE
                    pairing = pairing + va * vb * det
            top = InvForm.basis_form(n, tuple(range(n))).scale(pairing)
            assert lhs == top


class TestCoclosed:
    def test_iwasawa_rational_forms(self):
        g = iwasawa9()
        leaf = iwasawa_leaf(g)
        metric = Metric.identity(9)
        for i in (0, 3, 4):
            alpha = InvForm.basis_form(9, (i,))
            assert coclosed_check(g, leaf, metric, alpha)

    def test_abelian_always(self):
        g = abelian(3)
        leaf = LeafSubalgebra(g, [vec([1, 1, 0])])
        metric = Metric.identity(3)
        alpha = InvForm(3, 1, {(0,): ONE, (1,): -ONE})
        assert coclosed_check(g, leaf, metric, alpha)

    def test_heisenberg_point_foliation(self):
        g = heisenberg3()
        leaf = LeafSubalgebra(g, [])
        metric = Metric.identity(3)
        assert coclosed_check(g, leaf, metric, InvForm.basis_form(3, (2,)))

    def test_non_basic_rejected(self):
        g = iwasawa9()
        leaf = iwasawa_leaf(g)
        with pytest.raises(ValueError, match="not basic"):
            coclosed_check(g, leaf, Metric.identity(9), InvForm.basis_form(9, (1,)))

    def test_interior_star_matches_reference_star(self):
        # rational diagonal and six off-diagonal pairs, the first a + b*s;
        # a draw that is singular over Q(s) is skipped.  Rational algebras
        # and leaves keep the reference star affordable; s enters through
        # the metric.
        rng = random.Random(58)
        outcomes = []
        for _ in range(20):
            g = random_two_step_algebra(rng, with_s=False)
            n = g.n
            gram = [[Scalar.from_fraction(rng.randint(2, 4)) if i == j else ZERO
                     for j in range(n)] for i in range(n)]
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for t, (i, j) in enumerate(rng.sample(pairs, min(6, len(pairs)))):
                x = random_fraction(rng, 2) + (S * random_fraction(rng, 1) if t == 0 else 0)
                gram[i][j] = gram[j][i] = x
            metric = Metric(ScalarMatrix(gram))
            try:
                metric.inverse()
            except ValueError:
                continue
            seeds = [random_vector(rng, n, rational=True) for _ in range(rng.randint(1, 2))]
            leaf = LeafSubalgebra(g, g.bracket_closure(Subspace(n, seeds)).basis)
            chi = characteristic_form(leaf, metric)
            basic = [vector_to_form(n, 1, row) for row in basic_forms(g, leaf, 1).basis]
            if len(basic) > 1:
                basic.append(basic[0].add(basic[1].scale(Scalar.from_fraction(-3))))
            for alpha in basic:
                star = InvForm.basis_form(n, range(n)).interior(metric.sharp(alpha))
                for v in leaf.space.basis:
                    star = star.interior(v)
                reference = hodge_star(metric, alpha.wedge(chi))
                assert star == reference
                expected = ce_d(g, reference).is_zero
                assert coclosed_check(g, leaf, metric, alpha) == expected
                outcomes.append(expected)
        assert outcomes.count(False) >= 3 and outcomes.count(True) >= 3

    def test_characteristic_form_degree(self):
        g = iwasawa9()
        leaf = iwasawa_leaf(g)
        chi = characteristic_form(leaf, Metric.identity(9))
        assert chi.degree == 3 and not chi.is_zero


class TestMetricReports:
    def test_sample_signature_identity(self):
        report = Metric.identity(4).sample_signature(F(17, 12))
        assert report.positive_definite and report.minor_signs == (1, 1, 1, 1)

    def test_sample_signature_indefinite(self):
        metric = Metric(ScalarMatrix([[ONE, ZERO], [ZERO, -ONE]]))
        report = metric.sample_signature(F(17, 12))
        assert not report.positive_definite
        assert report.minor_signs == (1, -1)

    def test_s_dependent_metric(self):
        gram = ScalarMatrix([[S * S + ONE, ZERO], [ZERO, ONE]])
        report = Metric(gram).sample_signature(F(17, 12))
        assert report.positive_definite
