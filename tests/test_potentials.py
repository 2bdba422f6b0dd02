import math

import numpy as np
import pytest

from regmirror.errors import DomainError
from regmirror.numerics import rng_stream
from regmirror.potentials import NegativeEntropy, QNorm, SquaredL2, parse_potential

ALL_KINDS = [SquaredL2(), QNorm(3.0), QNorm(1.1), QNorm(10.0), NegativeEntropy()]


def random_domain_point(potential, rng, size=8):
    w = rng.standard_normal(size)
    if isinstance(potential, NegativeEntropy):
        w = np.abs(w) + 0.05
    return w


class TestGrad:
    def test_l2_identity_map(self):
        w = np.array([3.0, -2.0])
        assert np.array_equal(SquaredL2().grad(w), w)

    def test_qnorm_small_case(self):
        assert np.allclose(QNorm(3.0).grad(np.array([2.0])), [4.0])

    def test_entropy_at_one(self):
        assert np.allclose(NegativeEntropy().grad(np.array([1.0])), [1.0])

    def test_entropy_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            NegativeEntropy().grad(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("potential", ALL_KINDS, ids=lambda p: p.name)
    def test_matches_finite_differences(self, potential):
        rng = rng_stream(42)
        h = 1e-6
        for _ in range(25):
            w = random_domain_point(potential, rng)
            g = potential.grad(w)
            for k in range(len(w)):
                e = np.zeros_like(w)
                e[k] = h
                fd = (potential.value(w + e) - potential.value(w - e)) / (2 * h)
                assert abs(fd - g[k]) <= 1e-6 * (1 + abs(g[k]))


class TestGradInverse:
    def test_l2(self):
        assert np.allclose(SquaredL2().grad_inverse(np.array([5.0])), [5.0])

    def test_qnorm(self):
        assert np.allclose(QNorm(3.0).grad_inverse(np.array([4.0])), [2.0])

    def test_entropy(self):
        assert np.allclose(NegativeEntropy().grad_inverse(np.array([1.0])), [1.0])

    @pytest.mark.parametrize("potential", ALL_KINDS, ids=lambda p: p.name)
    def test_roundtrip_identity(self, potential):
        rng = rng_stream(7)
        for _ in range(1000):
            w = random_domain_point(potential, rng, size=5)
            back = potential.grad_inverse(potential.grad(w))
            assert np.allclose(back, w, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("potential", ALL_KINDS, ids=lambda p: p.name)
    def test_separability_under_permutation(self, potential):
        rng = rng_stream(13)
        w = random_domain_point(potential, rng, size=9)
        perm = rng.permutation(9)
        assert np.array_equal(potential.grad(w)[perm], potential.grad(w[perm]))
        v = potential.grad(w)  # a dual point: grad_inverse's domain, negatives included
        assert np.array_equal(potential.grad_inverse(v)[perm], potential.grad_inverse(v[perm]))

    @pytest.mark.parametrize("potential", ALL_KINDS, ids=lambda p: p.name)
    def test_deriv_matches_finite_differences(self, potential):
        # psi*'' is the KKT Newton's Jacobian diagonal in every oracle solve
        v = np.linspace(0.2, 2.0, 10)
        v = np.concatenate([v, -v])
        h = 1e-6
        fd = (potential.grad_inverse(v + h) - potential.grad_inverse(v - h)) / (2 * h)
        assert np.allclose(potential.grad_inverse_deriv(v), fd, rtol=1e-6, atol=0)


class TestBregman:
    def test_l2_is_half_squared_distance(self):
        val = SquaredL2().bregman(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_entropy_kl_hand_value(self):
        # sum w log(w/w') - w + w' at w=2, w'=1 is 2 log 2 - 1.
        val = NegativeEntropy().bregman(np.array([2.0]), np.array([1.0]))
        assert val == pytest.approx(2 * math.log(2) - 1, rel=1e-12)

    @pytest.mark.parametrize("potential", ALL_KINDS, ids=lambda p: p.name)
    def test_nonnegative_and_zero_iff_equal(self, potential):
        rng = rng_stream(99)
        for _ in range(1000):
            w = random_domain_point(potential, rng, size=4)
            ref = random_domain_point(potential, rng, size=4)
            val = potential.bregman(w, ref)
            assert val >= 0.0
            if np.max(np.abs(w - ref)) > 1e-6:
                assert val > 0.0
            assert potential.bregman(w, w) <= 1e-12

    @pytest.mark.parametrize("potential", ALL_KINDS, ids=lambda p: p.name)
    def test_convex_in_first_argument(self, potential):
        rng = rng_stream(5)
        for _ in range(200):
            a = random_domain_point(potential, rng, size=4)
            b = random_domain_point(potential, rng, size=4)
            ref = random_domain_point(potential, rng, size=4)
            mid = potential.bregman(0.5 * (a + b), ref)
            avg = 0.5 * (potential.bregman(a, ref) + potential.bregman(b, ref))
            assert mid <= avg + 1e-10


class TestStepKernels:
    @pytest.mark.parametrize("potential", ALL_KINDS, ids=lambda p: p.name)
    def test_step_matches_composed_maps(self, potential):
        rng = rng_stream(21)
        for _ in range(50):
            w = random_domain_point(potential, rng, size=6)
            g = rng.standard_normal(6)
            s = float(rng.normal(scale=0.1))
            expected = potential.grad_inverse(potential.grad(w) + s * g)
            buf = w.copy()
            potential.step(buf, g, s)
            assert np.allclose(buf, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("q", [1.1, 1.5, 3.0, 10.0])
    def test_qnorm_step_bit_identical_to_composed_maps(self, q):
        pot = QNorm(q)
        rng = rng_stream(22)
        for _ in range(20):
            w = rng.standard_normal(64)
            w[::7] = 0.0
            g = rng.standard_normal(64)
            g[3::11] = 0.0
            for s in (-0.05, 0.0, 0.3):
                expected = pot.grad_inverse(pot.grad(w) + s * g)
                buf = w.copy()
                pot.step(buf, g, s)
                assert np.array_equal(buf, expected)

    def test_entropy_step_rejects_underflow_to_zero(self):
        w = np.array([1e-300])
        g = np.array([-2000.0])
        with pytest.raises(DomainError):
            NegativeEntropy().step(w, g, 1.0)


class TestParse:
    def test_aliases(self):
        assert isinstance(parse_potential("l2"), SquaredL2)
        assert isinstance(parse_potential("entropy"), NegativeEntropy)
        assert parse_potential("linf").q == 10.0
        assert parse_potential("q:3").q == 3.0
        assert parse_potential("l1eps:0.1").q == pytest.approx(1.1)
        assert parse_potential("l1eps").q == pytest.approx(1.1)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            parse_potential("q:1.0")
        with pytest.raises(ValueError):
            parse_potential("l1eps:0")
        with pytest.raises(ValueError):
            parse_potential("spectral")
        for spec in ("q:inf", "l1eps:inf", "q:1e309"):
            with pytest.raises(ValueError, match="finite"):
                parse_potential(spec)
