"""Mirror-map potentials: values, gradients, inverses, Bregman divergences.

Three geometries are supported:

* ``SquaredL2``      psi(w) = 1/2 ||w||^2         (identity mirror map)
* ``QNorm(q)``       psi(w) = 1/q ||w||_q^q, q>1  (covers l1+eps and the
                     large-q surrogate for l-infinity regularization)
* ``NegativeEntropy`` psi(w) = sum w[k] log w[k], w > 0 elementwise

All maps are coordinate-separable. ``step`` applies the fused mirror
update ``w <- grad_inverse(grad(w) + s*g)`` in place through the
numpy kernels in ``regmirror.kernels``.
"""

import numpy as np

from . import kernels
from .errors import DomainError


class SquaredL2:
    name = "l2"

    def value(self, w):
        return 0.5 * float(w @ w)

    def grad(self, w):
        return np.array(w, dtype=float)

    def grad_inverse(self, v):
        return np.array(v, dtype=float)

    def grad_inverse_deriv(self, v):
        return np.ones_like(v)

    def curvature(self, w):
        return np.ones_like(w)

    def check_domain(self, w):
        pass

    def bregman(self, w, w_ref):
        d = w - w_ref
        return 0.5 * float(d @ d)

    def step(self, w, g, s):
        kernels.l2_step(w, g, s)


class QNorm:
    """q-norm potential for a finite q > 1.

    |x|^(q-1) at x = 0 is taken as 0 with sign(0) = 0, the continuous
    limit, so updates are well defined at the origin.
    """

    def __init__(self, q):
        if not 1.0 < q < float("inf"):
            raise ValueError(f"q must be finite and exceed 1, got {q}")
        self.q = float(q)
        self.name = f"q:{self.q:g}"

    def value(self, w):
        return float(np.sum(np.abs(w) ** self.q)) / self.q

    def grad(self, w):
        return np.sign(w) * np.abs(w) ** (self.q - 1.0)

    def grad_inverse(self, v):
        return np.sign(v) * np.abs(v) ** (1.0 / (self.q - 1.0))

    def grad_inverse_deriv(self, v):
        r = 1.0 / (self.q - 1.0)
        # |v|^(r-1) blows up at 0 for r < 1; clip so Newton Jacobians stay finite
        av = np.maximum(np.abs(v), 1e-150)
        return np.minimum(r * av ** (r - 1.0), 1e12)

    def curvature(self, w):
        aw = np.maximum(np.abs(w), 1e-150)
        return (self.q - 1.0) * aw ** (self.q - 2.0)

    def check_domain(self, w):
        pass

    def bregman(self, w, w_ref):
        val = self.value(w) - self.value(w_ref) - float(self.grad(w_ref) @ (w - w_ref))
        return max(val, 0.0)

    def step(self, w, g, s):
        kernels.qnorm_step(w, g, s, self.q)


class NegativeEntropy:
    """Negative-entropy potential; domain is strictly positive vectors.

    Nonpositive entries raise DomainError rather than being clamped, so
    a run that leaves the domain fails loudly.
    """

    name = "entropy"

    def value(self, w):
        self.check_domain(w)
        return float(np.sum(w * np.log(w)))

    def grad(self, w):
        self.check_domain(w)
        return 1.0 + np.log(w)

    def grad_inverse(self, v):
        return np.exp(v - 1.0)

    def grad_inverse_deriv(self, v):
        return np.exp(v - 1.0)

    def curvature(self, w):
        self.check_domain(w)
        return 1.0 / w

    def check_domain(self, w):
        if np.any(w <= 0.0):
            raise DomainError("negative-entropy potential requires strictly positive weights")

    def bregman(self, w, w_ref):
        self.check_domain(w)
        self.check_domain(w_ref)
        # KL form: sum w log(w/w') - w + w'
        val = float(np.sum(w * np.log(w / w_ref) - w + w_ref))
        return max(val, 0.0)

    def step(self, w, g, s):
        lo = kernels.entropy_step(w, g, s)
        if lo <= 0.0:
            raise DomainError("entropy mirror step produced a nonpositive weight")


def parse_potential(text):
    """Parse a config string into a potential.

    Accepted forms: "l2", "q:<real>", "entropy", "l1eps:<real>" (q = 1+eps,
    default eps 0.1) and "linf" (alias for q:10).
    """
    text = text.strip().lower()
    if text == "l2":
        return SquaredL2()
    if text == "entropy":
        return NegativeEntropy()
    if text == "linf":
        return QNorm(10.0)
    if text == "l1eps":
        return QNorm(1.1)
    if text.startswith("q:"):
        return QNorm(float(text[2:]))
    if text.startswith("l1eps:"):
        eps = float(text[6:])
        if not eps > 0.0:
            raise ValueError(f"l1eps requires eps > 0, got {eps}")
        return QNorm(1.0 + eps)
    raise ValueError(f"unrecognized potential spec {text!r}")
