"""dist^a * u as a plain field, by the chain rule.

The sharpness sweep never builds this field: each of its rows reads the
view ``power_weighted_sample`` of its cutoff's sample.  The tests compare
that view with this field, an independent route: it evaluates u and its
Euclidean gradient at the points, takes dist from the points, and samples
like any hand-built field (it does not override ``_sample``).
"""

import numpy as np

from strathardy import ScalarField, power_weighted_sample


def power_weighted_field(u, hs, a, label="power-weighted"):
    """dist^a * u with gradient dist^a grad u + a dist^(a-1) u nu, both 0.0
    where dist <= 0, on u's support and support box."""

    def fn_and_grad(points):
        d = hs.distance(points)
        f, grad = u.values_and_gradients(points)
        inside = d > 0.0
        d = np.where(inside, d, 1.0)  # any positive value: zeroed below
        # d^(a-1) as d^a / d: the exponent a - 1 rounds, and a power of its
        # own would carry that rounding times |ln d| near the boundary
        da = d**a
        grads = da[:, None] * grad + (a * (da / d) * f)[:, None] * hs.nu
        return np.where(inside, da * f, 0.0), np.where(inside[:, None], grads, 0.0)

    return ScalarField(
        u.dim, fn_and_grad=fn_and_grad, support_box=u.support_box, label=label, support=u.support
    )


def viewed(fs, a):
    """The integrands fs, each reading the view at a of the sample it is given."""
    return [lambda s, f=f: f(power_weighted_sample(s, a)) for f in fs]
