"""Operator algebra tests.

Verified here:
  * hand-checked values for the elasticity, step-inverse and condensed
    operators at lam = mu = eta = 1
  * exact agreement between the closed forms and independent 3x3 matrix
    oracles (generic inversion, exact rationals for the condensed operator)
  * algebraic properties: linearity, inverse consistency, contraction
    symmetry, positivity with the sharp Rayleigh bound
  * material and step-parameter validation
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import sympy as sp
from numpy.testing import assert_allclose

from viscofem.tensors import (
    DDOT_WEIGHTS,
    IDENTITY,
    Material,
    StepParams,
    apply_C,
    apply_C_eff,
    apply_relax,
    apply_relax_inv,
    c_inner,
    ddot,
    stress,
    tensor_trace,
    validate_material,
)

from oracles import (
    apply_matrix,
    as_matrix,
    effective_matrix,
    elasticity_matrix,
    step_inverse_matrix,
    to_float,
)

UNIT = Material(lam=1.0, mu=1.0, eta=1.0, alpha=0.0)


def random_tensors(rng, n):
    return rng.standard_normal((n, 3))


def random_material(rng):
    mu = rng.uniform(0.1, 10.0)
    lam = rng.uniform(-0.9 * mu, 10.0)
    return Material(lam=lam, mu=mu, eta=rng.uniform(0.1, 10.0), alpha=rng.uniform(0.0, 5.0))


# ---------------------------------------------------------------------------
# pinned values
# ---------------------------------------------------------------------------


class TestPinnedValues:
    def test_elasticity_uniaxial(self):
        out = apply_C(UNIT, np.array([1.0, 0.0, 0.0]))
        assert_allclose(out, [3.0, 1.0, 0.0], rtol=0, atol=0)

    def test_step_inverse_identity(self):
        # lam = mu = eta = 1, tau = 1, alpha = 0: beta0 = 3, beta1 = 5
        s = StepParams.from_material(UNIT, tau=1.0)
        assert s.beta0 == 3.0 and s.beta1 == 5.0
        assert_allclose(apply_relax_inv(UNIT, s, IDENTITY), IDENTITY / 5.0, rtol=1e-15)

    def test_step_inverse_shear(self):
        s = StepParams.from_material(UNIT, tau=1.0)
        shear = np.array([0.0, 0.0, 1.0])
        assert_allclose(apply_relax_inv(UNIT, s, shear), shear / 3.0, rtol=1e-15)

    def test_step_inverse_matches_matrix_oracle(self):
        s = StepParams.from_material(UNIT, tau=1.0)
        Rinv = step_inverse_matrix(1, 1, 1, 0, 1)
        for x in (IDENTITY, np.array([0.0, 0.0, 1.0]), np.array([2.0, -1.0, 0.5])):
            assert_allclose(apply_relax_inv(UNIT, s, x), apply_matrix(Rinv, x), rtol=1e-14)

    def test_effective_uniaxial(self):
        # hand elimination at lam = mu = eta = tau = 1, alpha = 0:
        # C e = (3,1,0), R^-1 C e = (11/15, 1/15, 0),
        # C (e - R^-1 C e) = C (4/15, -1/15, 0) = (11/15, 1/15, 0)
        s = StepParams.from_material(UNIT, tau=1.0)
        out = apply_C_eff(UNIT, s, np.array([1.0, 0.0, 0.0]))
        assert_allclose(out, [11.0 / 15.0, 1.0 / 15.0, 0.0], rtol=1e-14)

    def test_stress_is_elasticity_of_difference(self):
        e = np.array([1.0, 0.0, 0.0])
        assert_allclose(stress(UNIT, e, np.zeros(3)), [3.0, 1.0, 0.0], rtol=0)
        # at phi = e the stress vanishes identically
        assert_allclose(stress(UNIT, e, e), np.zeros(3), atol=0)

    def test_c_inner_uniaxial(self):
        e = np.array([1.0, 0.0, 0.0])
        assert c_inner(UNIT, e, e) == pytest.approx(3.0, abs=0)


# ---------------------------------------------------------------------------
# oracle agreement on random inputs
# ---------------------------------------------------------------------------


class TestMatrixOracle:
    def test_elasticity_matches_matrix(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_material(rng)
            M = elasticity_matrix(m.lam, m.mu)
            X = rng.standard_normal(3)
            assert_allclose(apply_C(m, X), apply_matrix(M, X), rtol=1e-13, atol=1e-13)

    def test_effective_matches_exact_rational_matrix(self):
        # 100 random rational parameter sets, condensed operator inverted
        # exactly by sympy, compared against the float closed form.
        rng = np.random.default_rng(11)
        for _ in range(100):
            mu = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 10)))
            lam = mu * Fraction(int(rng.integers(-9, 40)), 10)
            eta = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 10)))
            alpha = Fraction(int(rng.integers(0, 40)), 10)
            tau = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 100)))
            M = effective_matrix(
                sp.Rational(lam), sp.Rational(mu), sp.Rational(eta), sp.Rational(alpha), sp.Rational(tau)
            )
            m = Material(lam=float(lam), mu=float(mu), eta=float(eta), alpha=float(alpha))
            s = StepParams.from_material(m, tau=float(tau))
            X = rng.standard_normal(3)
            assert_allclose(apply_C_eff(m, s, X), apply_matrix(M, X), rtol=1e-12, atol=1e-12)

    def test_effective_matrix_is_symmetric_in_weighted_inner_product(self):
        # self-adjointness w.r.t. ddot: diag(w) @ M must be a symmetric matrix
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_material(rng)
            s = StepParams.from_material(m, tau=rng.uniform(0.001, 1.0))
            M = to_float(effective_matrix(m.lam, m.mu, m.eta, m.alpha, s.tau))
            W = np.diag(DDOT_WEIGHTS)
            assert_allclose(W @ M, (W @ M).T, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------


class TestProperties:
    def test_step_inverse_inverts_step(self):
        rng = np.random.default_rng(0)
        X = random_tensors(rng, 1000)
        for _ in range(10):
            m = random_material(rng)
            s = StepParams.from_material(m, tau=rng.uniform(1e-3, 2.0))
            back = apply_relax(m, s, apply_relax_inv(m, s, X))
            assert_allclose(back, X, rtol=1e-14, atol=1e-14)
            forth = apply_relax_inv(m, s, apply_relax(m, s, X))
            assert_allclose(forth, X, rtol=1e-14, atol=1e-14)

    def test_operators_are_linear(self):
        rng = np.random.default_rng(1)
        m = random_material(rng)
        s = StepParams.from_material(m, tau=0.25)
        X, Y = random_tensors(rng, 1000), random_tensors(rng, 1000)
        a, b = -1.7, 0.3
        for op in (
            lambda Z: apply_C(m, Z),
            lambda Z: apply_relax(m, s, Z),
            lambda Z: apply_relax_inv(m, s, Z),
            lambda Z: apply_C_eff(m, s, Z),
        ):
            assert_allclose(op(a * X + b * Y), a * op(X) + b * op(Y), rtol=1e-13, atol=1e-13)

    def test_ddot_symmetric_and_matches_matrix_trace(self):
        rng = np.random.default_rng(2)
        X, Y = random_tensors(rng, 200), random_tensors(rng, 200)
        assert_allclose(ddot(X, Y), ddot(Y, X), rtol=0, atol=0)
        for x, y in zip(X[:20], Y[:20]):
            assert ddot(x, y) == pytest.approx(np.trace(as_matrix(x) @ as_matrix(y)), rel=1e-14)

    def test_ddot_positive_definite(self):
        rng = np.random.default_rng(4)
        X = random_tensors(rng, 1000)
        assert np.all(ddot(X, X) > 0.0)

    def test_c_inner_symmetric_positive(self):
        rng = np.random.default_rng(5)
        m = random_material(rng)
        X, Y = random_tensors(rng, 500), random_tensors(rng, 500)
        assert_allclose(c_inner(m, X, Y), c_inner(m, Y, X), rtol=1e-13, atol=1e-13)
        assert np.all(c_inner(m, X, X) > 0.0)

    def test_elasticity_rayleigh_bound_is_sharp(self):
        # smallest generalized eigenvalue of (W C, W) equals min(2mu, 2mu + 2lam)
        rng = np.random.default_rng(6)
        W = np.diag(DDOT_WEIGHTS)
        for _ in range(50):
            m = random_material(rng)
            K = W @ to_float(elasticity_matrix(m.lam, m.mu))
            eigs = scipy.linalg.eigh(K, W, eigvals_only=True)
            expected = min(2.0 * m.mu, 2.0 * m.mu + 2.0 * m.lam)
            assert eigs.min() >= expected - 1e-10 * max(1.0, abs(expected))
            assert eigs.min() == pytest.approx(expected, rel=1e-10)

    def test_effective_positive_definite(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = random_material(rng)
            s = StepParams.from_material(m, tau=rng.uniform(1e-3, 1.0))
            X = random_tensors(rng, 200)
            assert np.all(ddot(apply_C_eff(m, s, X), X) > 0.0)

    def test_field_shapes_pass_through(self):
        # a (n, 3) per-element field takes the same code path as one tensor
        rng = np.random.default_rng(9)
        m = random_material(rng)
        s = StepParams.from_material(m, tau=0.1)
        X = random_tensors(rng, 17)
        stacked = apply_C_eff(m, s, X)
        rowwise = np.array([apply_C_eff(m, s, x) for x in X])
        assert_allclose(stacked, rowwise, rtol=0, atol=0)
        assert tensor_trace(X).shape == (17,)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class TestTypes:
    def test_validate_accepts_admissible(self):
        validate_material(Material(lam=1.0, mu=1.0, eta=1.0, alpha=0.0))
        # lam may be negative as long as lam > -mu in 2d
        validate_material(Material(lam=-0.9, mu=1.0, eta=0.5, alpha=2.0))

    @pytest.mark.parametrize(
        "m, message",
        [
            (Material(lam=1.0, mu=0.0, eta=1.0, alpha=0.0), "mu > 0"),
            (Material(lam=-1.0, mu=1.0, eta=1.0, alpha=0.0), "lam >"),
            (Material(lam=1.0, mu=1.0, eta=0.0, alpha=0.0), "eta > 0"),
            (Material(lam=1.0, mu=1.0, eta=1.0, alpha=-0.1), "alpha >= 0"),
            (Material(lam=float("nan"), mu=1.0, eta=1.0, alpha=0.0), "not finite"),
        ],
    )
    def test_validate_rejects_each_inequality(self, m, message):
        with pytest.raises(ValueError, match=message):
            validate_material(m)

    def test_step_params_require_positive_tau(self):
        with pytest.raises(ValueError, match="positive"):
            StepParams.from_material(UNIT, tau=0.0)

    def test_step_params_positive_for_admissible_materials(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            m = random_material(rng)
            s = StepParams.from_material(m, tau=rng.uniform(1e-4, 10.0))
            assert s.beta0 > 0.0 and s.beta1 > 0.0
