"""Numpy mirror-step kernels, called by ``Potential.step``.

Each kernel applies one fused mirror update in place:

    w <- grad_inverse(grad(w) + s * g)

for the corresponding potential, where ``s`` already folds in the
learning rate and any constraint scaling.
"""

import numpy as np


def l2_step(w, g, s):
    w += s * g


def qnorm_step(w, g, s, q):
    # in-place ** keeps numpy's sqrt fast path for the inverse at q = 3;
    # copysign differs from sign(x) * |x| only in the sign of an exact zero
    dual = np.abs(w)
    if q == 3.0:
        # |w| * w is copysign(|w|**2, w) to the bit, signed zeros included:
        # one rounding of |w| * |w|, sign from w; numpy's copysign is a slow loop
        dual *= w
    else:
        dual **= q - 1.0
        np.copysign(dual, w, out=dual)
    np.multiply(s, g, out=w)
    dual += w
    np.abs(dual, out=w)
    w **= 1.0 / (q - 1.0)
    np.copysign(w, dual, out=w)


def entropy_step(w, g, s):
    """Multiplicative update; returns min(w) so callers can check positivity."""
    w *= np.exp(s * g)
    return float(w.min())
