"""Tests for rational basic classes, period lattices, and the torus data."""

import random
from fractions import Fraction

import pytest

from nilfol.albanese import (
    FoliatedNilmanifold,
    albanese_lattice,
    albanese_map,
    basic_foliation_report,
    basic_rational_basis,
    classical_albanese,
    fiber_report,
    parse_group_word,
    period_matrix,
    stratum_codim_check,
    submersion_check,
)
from nilfol.exactalg import ONE, S, Scalar, ScalarMatrix, Subspace, unit_vector, vec
from nilfol.geometry import Metric
from nilfol.invforms import InvForm, d_matrix, form_to_vector
from nilfol.liealg import LeafSubalgebra, LieAlgebra

from helpers import (
    kernel_intersection,
    random_subalgebra,
    random_two_step_algebra,
    two_pass_kernel,
)
from test_liealg import abelian, heisenberg3, iwasawa9, iwasawa_leaf

F = Fraction


def iwasawa_fnm():
    g = iwasawa9()
    return FoliatedNilmanifold(g, iwasawa_leaf(g), Metric.identity(9), name="iwasawa9")


def kronecker_fnm():
    g = abelian(2)
    return FoliatedNilmanifold(g, LeafSubalgebra(g, [(ONE, S)]), Metric.identity(2))


def trivial_torus_fnm(n=2):
    g = abelian(n)
    return FoliatedNilmanifold(g, LeafSubalgebra(g, []), Metric.identity(n))


def ef(n, *indices):
    return InvForm.basis_form(n, tuple(i - 1 for i in indices))


class TestRationalBasis:
    def test_iwasawa_rank_three(self):
        k, forms = basic_rational_basis(iwasawa_fnm())
        assert k == 3
        assert list(forms) == [ef(9, 1), ef(9, 4), ef(9, 5)]

    def test_kronecker_rank_zero(self):
        k, forms = basic_rational_basis(kronecker_fnm())
        assert k == 0 and forms == ()

    def test_trivial_foliation_full_rank(self):
        fnm = trivial_torus_fnm(3)
        k, forms = basic_rational_basis(fnm)
        assert k == 3
        assert list(forms) == [ef(3, 1), ef(3, 2), ef(3, 3)]


class TestPeriodMatrix:
    def test_iwasawa_unit_rows(self):
        fnm = iwasawa_fnm()
        _, forms = basic_rational_basis(fnm)
        periods = period_matrix(fnm, forms)
        for row, pos in zip(periods, (0, 3, 4)):
            assert row == tuple(F(1) if j == pos else F(0) for j in range(9))

    def test_abelian_periods_are_coefficients(self):
        fnm = trivial_torus_fnm(2)
        form = ef(2, 1).scale(Scalar([F(2, 3)]))
        assert period_matrix(fnm, (form,)) == ((F(2, 3), F(0)),)

    def test_linearity(self):
        fnm = trivial_torus_fnm(2)
        doubled = ef(2, 1).scale(Scalar([F(2)]))
        assert period_matrix(fnm, (doubled,))[0][0] == 2 * period_matrix(fnm, (ef(2, 1),))[0][0]

    def test_non_closed_rejected(self):
        g = heisenberg3()
        fnm = FoliatedNilmanifold(g, LeafSubalgebra(g, []), Metric.identity(3))
        with pytest.raises(ValueError, match="non-closed"):
            period_matrix(fnm, (ef(3, 3),))


class TestAlbaneseLattice:
    def test_iwasawa_standard_torus(self):
        result = albanese_lattice(iwasawa_fnm())
        assert result.k == 3
        assert result.lattice.is_standard()
        assert result.torus.describe().startswith("T^3")

    def test_kronecker_point(self):
        result = albanese_lattice(kronecker_fnm())
        assert result.trivial and result.torus.rank == 0
        assert result.torus.describe() == "point"

    def test_scaled_forms_scale_lattice(self):
        fnm = trivial_torus_fnm(2)
        half = ef(2, 1).scale(Scalar([F(1, 2)]))
        periods = period_matrix(fnm, (half, ef(2, 2)))
        from nilfol.exactalg import hnf_lattice
        columns = [tuple(periods[i][j] for i in range(2)) for j in range(2)]
        lattice = hnf_lattice(columns)
        assert lattice.basis == ((F(1, 2), F(0)), (F(0), F(1)))


class TestAlbaneseMap:
    def test_empty_word(self):
        fnm = iwasawa_fnm()
        assert albanese_map(fnm, ()) == (F(0), F(0), F(0))

    def test_full_loop_reduces_to_zero(self):
        fnm = iwasawa_fnm()
        assert albanese_map(fnm, ((1, F(1)),)) == (F(0), F(0), F(0))

    def test_half_step(self):
        fnm = iwasawa_fnm()
        assert albanese_map(fnm, ((4, F(1, 2)),)) == (F(0), F(1, 2), F(0))

    def test_concatenation_additivity(self):
        fnm = iwasawa_fnm()
        result = albanese_lattice(fnm)
        rng = random.Random(51)
        for _ in range(30):
            w1 = tuple((rng.randint(1, 9), F(rng.randint(-6, 6), rng.randint(1, 4)))
                       for _ in range(rng.randint(0, 3)))
            w2 = tuple((rng.randint(1, 9), F(rng.randint(-6, 6), rng.randint(1, 4)))
                       for _ in range(rng.randint(0, 3)))
            a = albanese_map(fnm, w1, result)
            b = albanese_map(fnm, w2, result)
            ab = albanese_map(fnm, w1 + w2, result)
            assert ab == result.lattice.reduce([x + y for x, y in zip(a, b)])

    def test_word_parsing(self):
        assert parse_group_word("4:1/2, 1:3") == ((4, F(1, 2)), (1, F(3)))
        assert parse_group_word("") == ()
        with pytest.raises(ValueError):
            parse_group_word("4")
        with pytest.raises(ValueError):
            parse_group_word("a:b")


class TestSubmersion:
    def test_iwasawa(self):
        assert submersion_check(iwasawa_fnm())

    def test_trivial_rank_zero(self):
        assert submersion_check(kronecker_fnm())

    def test_duplicated_forms_fail(self):
        fnm = iwasawa_fnm()
        assert not submersion_check(fnm, (ef(9, 1), ef(9, 1)))


class TestFiber:
    def test_iwasawa_fiber(self):
        report = fiber_report(iwasawa_fnm())
        expected = Subspace(9, [unit_vector(9, i) for i in (1, 2, 5, 6, 7, 8)])
        assert report.fiber == expected
        assert report.is_subalgebra
        assert report.restricted_dense

    def test_trivial_foliation_zero_fiber(self):
        report = fiber_report(trivial_torus_fnm(2))
        assert report.fiber.dim == 0 and report.restricted_dense

    def test_kronecker_full_fiber(self):
        report = fiber_report(kronecker_fnm())
        assert report.fiber == Subspace.full(2)
        assert report.restricted_dense


class TestBasicFoliationRank:
    def test_iwasawa(self):
        report = basic_foliation_report(iwasawa_fnm())
        assert report.hull.dim == 6
        assert report.q_b == 3
        assert report.dim_h1_basic_foliation == 3 == report.k
        assert report.tprank_ok

    def test_trivial(self):
        report = basic_foliation_report(trivial_torus_fnm(3))
        assert report.hull.dim == 0
        assert report.dim_h1_basic_foliation == 3 and report.tprank_ok

    def test_kronecker(self):
        report = basic_foliation_report(kronecker_fnm())
        assert report.hull == Subspace.full(2)
        assert report.dim_h1_basic_foliation == 0 == report.k
        assert report.tprank_ok

    def test_dense_hull_forces_rank_zero(self):
        # whenever the hull is everything the rational rank vanishes
        for fnm in (kronecker_fnm(),):
            report = basic_foliation_report(fnm)
            if report.hull == Subspace.full(fnm.n):
                assert report.k == 0


    def test_one_dimensional_torus(self):
        report = basic_foliation_report(trivial_torus_fnm(1))
        assert report.dim_h1_basic_foliation == 1 == report.k

    def test_one_kernel_matches_intersection(self):
        # closed 1-forms vanishing on the hull, against closed ∩ ann(hull)
        rng = random.Random(184)
        fnms = [iwasawa_fnm(), kronecker_fnm(), trivial_torus_fnm(3)]
        for _ in range(8):
            g = random_two_step_algebra(rng, with_s=False)
            leaf = LeafSubalgebra(g, random_subalgebra(rng, g).basis)
            fnms.append(FoliatedNilmanifold(g, leaf, Metric.identity(g.n)))
        for fnm in fnms:
            report = basic_foliation_report(fnm)
            closed = two_pass_kernel(d_matrix(fnm.algebra, 1))
            if report.hull.dim:
                closed = kernel_intersection(closed, two_pass_kernel(ScalarMatrix(report.hull.basis)))
            assert report.dim_h1_basic_foliation == closed.dim


class TestClassicalAlbanese:
    def test_iwasawa(self):
        result = classical_albanese(iwasawa_fnm())
        assert result.b1 == 5
        assert result.status == "ok"
        assert result.lattice.is_standard()
        assert result.projection_ok

    def test_abelian(self):
        result = classical_albanese(trivial_torus_fnm(4))
        assert result.b1 == 4 and result.torus.rank == 4

    def test_heisenberg(self):
        g = heisenberg3()
        fnm = FoliatedNilmanifold(g, LeafSubalgebra(g, []), Metric.identity(3))
        assert classical_albanese(fnm).b1 == 2

    def test_irrational_closed_forms(self):
        # [e1,e2] = s e3 + e4 forces the closed form e3 - s e4, so the
        # closed 1-forms have no full rational basis
        g = LieAlgebra(4, {(0, 1): {2: S, 3: ONE}})
        fnm = FoliatedNilmanifold(g, LeafSubalgebra(g, []), Metric.identity(4))
        result = classical_albanese(fnm)
        assert result.b1 == 3
        assert result.status == "irrational-periods"
        assert result.torus is None
        assert result.projection_ok


class TestStratum:
    def test_iwasawa(self):
        report = stratum_codim_check(iwasawa_fnm())
        assert (report.q, report.k, report.passes) == (6, 3, True)
        assert report.closure_leaf_codim == 3

    def test_kronecker(self):
        report = stratum_codim_check(kronecker_fnm())
        assert (report.q, report.k, report.passes) == (1, 0, True)

    def test_trivial(self):
        report = stratum_codim_check(trivial_torus_fnm(3))
        assert (report.q, report.k, report.passes) == (3, 3, True)


class TestInvariance:
    def test_k_invariant_under_leaf_generator_change(self):
        g = iwasawa9()
        rng = random.Random(52)
        base_rows = list(iwasawa_leaf(g).space.basis)
        k0, _ = basic_rational_basis(iwasawa_fnm())
        for _ in range(10):
            mixed = []
            for i, row in enumerate(base_rows):
                c = S if rng.random() < 0.5 else Scalar([F(rng.randint(1, 4))])
                other = base_rows[(i + 1) % len(base_rows)]
                mixed.append(tuple(x + c * y for x, y in zip(row, other)))
            leaf = LeafSubalgebra(g, mixed)
            fnm = FoliatedNilmanifold(g, leaf, Metric.identity(9))
            assert basic_rational_basis(fnm)[0] == k0

    def test_nonsingular_closed_forms(self):
        # every nonzero closed basic 1-form has a nonzero constant
        # coefficient vector, hence never vanishes on the manifold
        from nilfol.invforms import basic_h1
        for fnm in (iwasawa_fnm(), kronecker_fnm(), trivial_torus_fnm(3)):
            report = basic_h1(fnm.algebra, fnm.leaf)
            for rep in report.representatives:
                assert not rep.is_zero

    def test_pullback_rank(self):
        # the period matrix has full rank k and spans the basic lattice
        fnm = iwasawa_fnm()
        result = albanese_lattice(fnm)
        from helpers import frac_rank
        assert frac_rank([list(r) for r in result.period_matrix]) == result.k


class TestValidationGate:
    def test_invalid_algebra_rejected(self):
        g = LieAlgebra(3, {(0, 1): {2: ONE}, (0, 2): {0: ONE}})
        with pytest.raises(ValueError, match="invalid algebra"):
            FoliatedNilmanifold(g, LeafSubalgebra(g, []), Metric.identity(3))

    def test_foreign_leaf_rejected(self):
        g = abelian(3)
        with pytest.raises(ValueError, match="different algebra"):
            FoliatedNilmanifold(g, LeafSubalgebra(abelian(3), []), Metric.identity(3))

    def test_exotic_lattice_mode_rejected(self):
        g = abelian(2)
        with pytest.raises(ValueError, match="lattice mode"):
            FoliatedNilmanifold(g, LeafSubalgebra(g, []), Metric.identity(2),
                                lattice_mode="custom")
