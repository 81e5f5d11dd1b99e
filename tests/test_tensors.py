"""Operator algebra tests.

Verified here:
  * hand-checked values for the elasticity, step-inverse and condensed
    operators at lam = mu = eta = 1, and the Lame pairs behind them
  * agreement between the step matrices (condensed, drag, the two update
    matrices and the step inverse read off them) and independent 3x3 matrix
    oracles inverted exactly over the rationals, also for random admissible
    materials drawn by hypothesis
  * every matrix applies as the componentwise closed form lam*tr(X)*I +
    2*mu*X and is self-adjoint for the contraction
  * algebraic properties: linearity, inverse consistency, contraction
    symmetry, positivity with the sharp Rayleigh bound
  * material and step-parameter validation
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import sympy as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from viscofem.tensors import (
    DDOT_WEIGHTS,
    Material,
    StepParams,
    isotropic,
    stress,
    validate_material,
)

from oracles import (
    MATERIALS,
    TAUS,
    admissible,
    apply_C,
    apply_matrix,
    as_matrix,
    drag_matrix,
    effective_matrix,
    elasticity_matrix,
    step_inverse_matrix,
    to_float,
    update_prev_matrix,
    update_strain_matrix,
)

UNIT = Material(lam=1.0, mu=1.0, eta=1.0, alpha=0.0)
IDENTITY = np.array([1.0, 1.0, 0.0])

# the matrices a StepParams holds, by name
STEP_MATRICES = {
    "C": lambda s: s.C,
    "condensed": lambda s: s.condensed,
    "drag": lambda s: s.drag,
    "update_strain": lambda s: s.update_strain,
    "update_prev": lambda s: s.update_prev,
}


def ddot(X, Y):
    """Double contraction X : Y with the package's contraction weights."""
    return (np.asarray(X) * np.asarray(Y)) @ DDOT_WEIGHTS


def step_inverse(s):
    """R^-1, read off the update matrix d * R^-1."""
    return s.update_prev / s.d


def random_tensors(rng, n):
    return rng.standard_normal((n, 3))


def random_material(rng):
    mu = rng.uniform(0.1, 10.0)
    lam = rng.uniform(-0.9 * mu, 10.0)
    return Material(lam=lam, mu=mu, eta=rng.uniform(0.1, 10.0), alpha=rng.uniform(0.0, 5.0))


def apply_step(m, s, X):
    """The step operator R X = (eta/tau + alpha) X + C X, which the package
    never applies: it only needs R^-1."""
    return (s.d + m.alpha) * X + X @ s.C


def rational_draws(seed, count=100):
    """Random exact parameter sets (lam, mu, eta, alpha, tau) as Fractions.

    eta/tau spans 1e-4 to 9, lam reaches down to -0.99 mu, and every third
    draw has alpha = 0: the regimes where composing C (I - R^-1 C) in
    floating point loses digits to cancellation.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        mu = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 10)))
        lam = mu * Fraction(int(rng.integers(-99, 400)), 100)
        eta = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 10)))
        alpha = Fraction(0) if i % 3 == 0 else Fraction(int(rng.integers(1, 40)), 10)
        rate = Fraction(int(rng.integers(1, 10)), 10 ** int(rng.integers(0, 5)))
        yield (lam, mu, eta, alpha, eta / rate), rng.standard_normal(3)


def assert_matches_oracle(matrix_of, oracle, seed):
    """X @ matrix_of(step) against oracle(...) inverted exactly."""
    for params, X in rational_draws(seed):
        lam, mu, eta, alpha, tau = (float(p) for p in params)
        s = StepParams.from_material(Material(lam=lam, mu=mu, eta=eta, alpha=alpha), tau=tau)
        ref = apply_matrix(oracle(*(sp.Rational(p) for p in params)), X)
        atol = 1e-12 * min(1.0, np.abs(ref).max())
        assert_allclose(X @ matrix_of(s), ref, rtol=1e-12, atol=atol)


# ---------------------------------------------------------------------------
# pinned values
# ---------------------------------------------------------------------------


class TestPinnedValues:
    def test_elasticity_uniaxial(self):
        out = np.array([1.0, 0.0, 0.0]) @ isotropic(1.0, 1.0)
        assert_allclose(out, [3.0, 1.0, 0.0], rtol=0, atol=0)
        assert_array_equal(StepParams.from_material(UNIT, tau=1.0).C, isotropic(1.0, 1.0))

    def test_step_inverse_identity(self):
        # lam = mu = eta = 1, tau = 1, alpha = 0: R has eigenvalues 3 (shear)
        # and 5 (trace), so R^-1 is the pair (1/5 - 1/3) / 2, 1/6
        s = StepParams.from_material(UNIT, tau=1.0)
        assert s.d == 1.0
        assert_allclose(step_inverse(s), isotropic(-1.0 / 15.0, 1.0 / 6.0), rtol=1e-15)
        assert_allclose(IDENTITY @ step_inverse(s), IDENTITY / 5.0, rtol=1e-15)

    def test_step_inverse_shear(self):
        s = StepParams.from_material(UNIT, tau=1.0)
        shear = np.array([0.0, 0.0, 1.0])
        assert_allclose(shear @ step_inverse(s), shear / 3.0, rtol=1e-15)

    def test_step_inverse_matches_matrix_oracle(self):
        s = StepParams.from_material(UNIT, tau=1.0)
        Rinv = step_inverse_matrix(1, 1, 1, 0, 1)
        for x in (IDENTITY, np.array([0.0, 0.0, 1.0]), np.array([2.0, -1.0, 0.5])):
            assert_allclose(x @ step_inverse(s), apply_matrix(Rinv, x), rtol=1e-14)

    def test_effective_uniaxial(self):
        # hand elimination at lam = mu = eta = tau = 1, alpha = 0:
        # C e = (3,1,0), R^-1 C e = (11/15, 1/15, 0),
        # C (e - R^-1 C e) = C (4/15, -1/15, 0) = (11/15, 1/15, 0),
        # which is the pair (1/15, 1/3); with alpha = 0 the drag is the same
        s = StepParams.from_material(UNIT, tau=1.0)
        pair = (s.condensed[0, 1], s.condensed[2, 2] / 2.0)
        assert pair == pytest.approx((1.0 / 15.0, 1.0 / 3.0), rel=1e-15)
        assert_allclose(s.drag, isotropic(1.0 / 15.0, 1.0 / 3.0), rtol=1e-15)
        out = np.array([1.0, 0.0, 0.0]) @ s.condensed
        assert_allclose(out, [11.0 / 15.0, 1.0 / 15.0, 0.0], rtol=1e-14)
        # the update: phi = e C R^-1 + phi_prev d R^-1, so from phi_prev = 0
        # it is R^-1 C e
        assert_allclose(np.array([1.0, 0.0, 0.0]) @ s.update_strain,
                        [11.0 / 15.0, 1.0 / 15.0, 0.0], rtol=1e-14)

    def test_stress_is_elasticity_of_difference(self):
        C = isotropic(1.0, 1.0)
        e = np.array([1.0, 0.0, 0.0])
        st = stress(C, e, np.zeros(3))
        assert_allclose(st.sigma, [3.0, 1.0, 0.0], rtol=0)
        assert_array_equal(st.gap, e)
        # at phi = e the stress vanishes identically
        assert_allclose(stress(C, e, e).sigma, np.zeros(3), atol=0)

    def test_c_inner_uniaxial(self):
        e = np.array([1.0, 0.0, 0.0])
        assert ddot(e @ isotropic(1.0, 1.0), e) == pytest.approx(3.0, abs=0)


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
            assert_allclose(X @ isotropic(m.lam, m.mu), apply_matrix(M, X), rtol=1e-13, atol=1e-13)
            assert_allclose(X @ isotropic(m.lam, m.mu), apply_C(m.lam, m.mu, X), rtol=1e-13,
                            atol=1e-13)

    def test_effective_matches_exact_rational_matrix(self):
        # 100 random rational parameter sets, condensed operator C (I - R^-1 C)
        # formed and inverted exactly by sympy, against the condensed matrix
        assert_matches_oracle(lambda s: s.condensed, effective_matrix, seed=11)

    def test_step_inverse_matches_exact_rational_matrix(self):
        assert_matches_oracle(step_inverse, step_inverse_matrix, seed=12)

    def test_drag_matches_exact_rational_matrix(self):
        assert_matches_oracle(lambda s: s.drag, drag_matrix, seed=13)

    def test_update_matches_exact_rational_matrix(self):
        assert_matches_oracle(lambda s: s.update_strain, update_strain_matrix, seed=14)
        assert_matches_oracle(lambda s: s.update_prev, update_prev_matrix, seed=15)

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
# random admissible materials (hypothesis)
# ---------------------------------------------------------------------------


EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestRandomAdmissible:
    @EXAMPLES
    @given(m=MATERIALS, tau=TAUS, l=st.floats(-10.0, 10.0), mu=st.floats(-10.0, 10.0))
    def test_matrices_apply_as_closed_form(self, m, tau, l, mu):
        X = np.random.default_rng(0).standard_normal((8, 3))
        # any Lame pair, and the elasticity of the material
        for pair in ((l, mu), (m.lam, m.mu)):
            assert_allclose(X @ isotropic(*pair), apply_C(*pair, X), rtol=1e-14, atol=1e-14 * (
                abs(pair[0]) + abs(pair[1])))
        # every step matrix is the matrix of the Lame pair on its entries
        s = StepParams.from_material(m, tau)
        for name, matrix_of in STEP_MATRICES.items():
            M = matrix_of(s)
            pair = (M[0, 1], M[2, 2] / 2.0)
            assert_allclose(X @ M, apply_C(*pair, X), rtol=1e-13, atol=1e-13 * np.abs(M).max(),
                            err_msg=name)
            assert_array_equal(M, isotropic(*pair), err_msg=name)

    @EXAMPLES
    @given(m=MATERIALS, tau=TAUS)
    def test_matrices_are_self_adjoint(self, m, tau):
        W = np.diag(DDOT_WEIGHTS)
        s = StepParams.from_material(m, tau)
        for name, matrix_of in STEP_MATRICES.items():
            WM = W @ matrix_of(s)
            assert_array_equal(WM, WM.T, err_msg=name)

    @EXAMPLES
    @given(m=admissible(st.just(0.0)), tau=TAUS)
    def test_update_matrices_match_exact_rational_oracle(self, m, tau):
        # alpha = 0 and lam near -mu: the trace eigenvalue 2 (lam + mu) of C
        # is small against the shear one
        s = StepParams.from_material(m, tau)
        exact = [sp.Rational(v) for v in (m.lam, m.mu, m.eta, m.alpha, tau)]
        for got, oracle in ((s.update_strain, update_strain_matrix),
                            (s.update_prev, update_prev_matrix),
                            (s.drag, drag_matrix)):
            ref = to_float(oracle(*exact))
            assert_allclose(got, ref, rtol=1e-12, atol=1e-13 * np.abs(ref).max(),
                            err_msg=oracle.__name__)


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
            back = apply_step(m, s, X @ step_inverse(s))
            assert_allclose(back, X, rtol=1e-14, atol=1e-14)
            forth = apply_step(m, s, X) @ step_inverse(s)
            assert_allclose(forth, X, rtol=1e-14, atol=1e-14)
            # C and R^-1 commute, and C R^-1 is the strain update matrix
            assert_allclose(X @ s.C @ step_inverse(s), X @ s.update_strain, rtol=1e-13, atol=1e-13)
            assert_allclose(X @ step_inverse(s) @ s.C, X @ s.update_strain, rtol=1e-13, atol=1e-13)

    def test_operators_are_linear(self):
        rng = np.random.default_rng(1)
        m = random_material(rng)
        s = StepParams.from_material(m, tau=0.25)
        X, Y = random_tensors(rng, 1000), random_tensors(rng, 1000)
        a, b = -1.7, 0.3
        for matrix_of in STEP_MATRICES.values():
            M = matrix_of(s)
            assert_allclose((a * X + b * Y) @ M, a * (X @ M) + b * (Y @ M), rtol=1e-13, atol=1e-13)

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
        C = isotropic(m.lam, m.mu)
        X, Y = random_tensors(rng, 500), random_tensors(rng, 500)
        assert_allclose(ddot(X @ C, Y), ddot(Y @ C, X), rtol=1e-13, atol=1e-13)
        assert np.all(ddot(X @ C, X) > 0.0)

    def test_elasticity_rayleigh_bound_is_sharp(self):
        # smallest generalized eigenvalue of (W C, W) equals min(2mu, 2mu + 2lam)
        rng = np.random.default_rng(6)
        W = np.diag(DDOT_WEIGHTS)
        for _ in range(50):
            m = random_material(rng)
            K = W @ isotropic(m.lam, m.mu)
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
            assert np.all(ddot(X @ s.condensed, X) > 0.0)

    def test_field_shapes_pass_through(self):
        # a (n, 3) per-element field and one tensor give bitwise the same
        # result under every step matrix and the stress
        rng = np.random.default_rng(9)
        m = random_material(rng)
        s = StepParams.from_material(m, tau=0.1)
        X = random_tensors(rng, 17)
        for name, matrix_of in STEP_MATRICES.items():
            M = matrix_of(s)
            stacked = X @ M
            rowwise = np.array([x @ M for x in X])
            assert_allclose(stacked, rowwise, rtol=0, atol=0, err_msg=name)
        stacked = stress(s.C, X, 0.5 * X)
        rowwise = [stress(s.C, x, 0.5 * x) for x in X]
        assert_allclose(stacked.sigma, [st.sigma for st in rowwise], rtol=0, atol=0)
        assert_allclose(stacked.gap, [st.gap for st in rowwise], rtol=0, atol=0)


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
            # an isotropic matrix is positive definite when both eigenvalues
            # are: 2*mu = M[2, 2] (shear) and 2*lam + 2*mu = M[0, 0] + M[0, 1]
            for matrix_of in STEP_MATRICES.values():
                M = matrix_of(s)
                assert M[2, 2] > 0.0 and M[0, 0] + M[0, 1] > 0.0
