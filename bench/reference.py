"""Independent reference values for the benchmark's verdict checks.

Written with numpy and scipy only; it shares no code with ``strathardy``.
Every figure is computed at two resolutions, and the benchmark uses the
finer one only when the two agree well below the error it measures.

Hardy quotients of an interior bump on the Heisenberg group H^n,
    q_p = int |grad_H u|^p / int (W |u| / dist)^p,
    u = exp(-1 / (1 - |z|^2)),  z = (x - c) / r,
are integrated in spherical coordinates about the bump's center: Gauss-
Legendre in the radius and a product Gauss rule on the sphere.  The fields
are written in closed form, X_i = d/dx_i + 2 y_i d/dt and
Y_i = d/dy_i - 2 x_i d/dt, so W = |(<X_k, nu>)_k| is explicit.

Sharpness quotients (p = 2, normal e_1, offset 0, cutoff of radius R
centred at the origin) use Gauss-Jacobi in x, which absorbs the
x^(2 eps - 1) weight exactly, and polar coordinates in (y, t), where the
cutoff is radial, so a trapezoid rule in the angle is exact for the
trigonometric polynomials that the fields contribute.

Run ``python3 bench/reference.py`` to regenerate ``bench/references.json``,
the stored reference figures with the resolutions that produced them.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.special import roots_jacobi

# (coarse, fine) resolutions of the Hardy references, keyed by the
# dimension 2n + 1 of H^n: (radial Gauss-Legendre nodes, angular order m)
HARDY_RESOLUTIONS = {3: ((64, 32), (64, 48)), 5: ((48, 8), (48, 10)), 7: ((24, 3), (24, 4))}
# (coarse, fine) resolutions of the sharpness references: (x nodes, rho nodes)
SHARPNESS_RESOLUTIONS = ((40, 40), (60, 60))
SHARPNESS_ANGLES = 16


@lru_cache(maxsize=8)
def sphere_rule(dim: int, m: int):
    """Product Gauss rule on the unit sphere S^(dim-1).

    The sphere is built up one dimension at a time: S^(k-1) is lifted to
    S^k by a polar angle whose cosine c carries the weight
    (1 - c^2)^((k-2)/2), integrated by Gauss-Jacobi with m nodes; the
    circle S^1 uses the trapezoid rule with 2m nodes.  Returns directions
    (K, dim) and weights (K,) summing to the sphere's area.
    """
    angles = 2.0 * math.pi * np.arange(2 * m) / (2 * m)
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    weights = np.full(2 * m, math.pi / m)
    for k in range(2, dim):
        c, wc = roots_jacobi(m, (k - 2) / 2.0, (k - 2) / 2.0)
        sine = np.sqrt(1.0 - c * c)
        lifted = (sine[:, None, None] * directions[None, :, :]).reshape(-1, k)
        directions = np.concatenate([np.repeat(c, weights.size)[:, None], lifted], axis=1)
        weights = (wc[:, None] * weights[None, :]).reshape(-1)
    return directions, weights


def _hardy_sums(n, nu, d, center, radius, ps, resolution):
    """Numerators and denominators of the Hardy quotients, one per p.

    resolution = (radial Gauss-Legendre nodes, angular order m).  The bump
    is radial about its center, so its essential singularity at the edge
    of the support meets only the 1-D radial rule.
    """
    dim = 2 * n + 1
    n_rho, m = resolution
    center = np.asarray(center, dtype=float)
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    directions, w_angle = sphere_rule(dim, m)
    x, wx = np.polynomial.legendre.leggauss(n_rho)
    rhos = 0.5 * (1.0 + x)
    w_rho = 0.5 * wx * rhos ** (dim - 1)
    num = np.zeros(len(ps))
    den = np.zeros(len(ps))
    for rho, wr in zip(rhos, w_rho):
        z = rho * directions
        s = rho * rho
        pts = center + radius * z
        dist = pts @ nu - d
        if np.any(dist <= 0.0):
            raise ValueError("the reference handles bumps inside the half-space only")
        u = math.exp(-1.0 / (1.0 - s))
        g = (-2.0 * u / ((1.0 - s) ** 2 * radius)) * z  # Euclidean gradient of u
        xs, ys, t = pts[:, :n], pts[:, n : 2 * n], pts[:, 2 * n]
        gx, gy, gt = g[:, :n], g[:, n : 2 * n], g[:, 2 * n]
        hx = gx + 2.0 * ys * gt[:, None]
        hy = gy - 2.0 * xs * gt[:, None]
        grad2 = np.sum(hx * hx, axis=1) + np.sum(hy * hy, axis=1)
        px = nu[:n] + 2.0 * ys * nu[2 * n]
        py = nu[n : 2 * n] - 2.0 * xs * nu[2 * n]
        angle = np.sqrt(np.sum(px * px, axis=1) + np.sum(py * py, axis=1))
        ratio = angle * u / dist
        w = wr * w_angle
        for k, p in enumerate(ps):
            num[k] += np.dot(w, grad2 ** (p / 2.0))
            den[k] += np.dot(w, ratio**p)
    scale = radius**dim
    return num * scale, den * scale


def hardy_reference(n, nu, d, center, radius, ps):
    """Reference Hardy quotients of one interior bump on H^n.

    Returns {p: (q, spread)}: q from the fine resolution and spread =
    |q_fine - q_coarse| / q_fine.
    """
    qs = [
        np.divide(*_hardy_sums(n, nu, d, center, radius, ps, res))
        for res in HARDY_RESOLUTIONS[2 * n + 1]
    ]
    return {
        float(p): (float(qs[1][k]), abs(float(qs[1][k] - qs[0][k])) / float(qs[1][k]))
        for k, p in enumerate(ps)
    }


def _sharpness_sums(eps, radius, n_x, n_rho, n_angle):
    # int_0^R x^(2 eps - 1) g(x) dx by Gauss-Jacobi on (0, R)
    beta = 2.0 * eps - 1.0
    xi, wx = roots_jacobi(n_x, 0.0, beta)
    xs = 0.5 * radius * (1.0 + xi)
    wx = wx * (0.5 * radius) ** (beta + 1.0)
    alpha = 0.5 + eps
    theta = 2.0 * math.pi * np.arange(n_angle) / n_angle
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rho_nodes, rho_weights = np.polynomial.legendre.leggauss(n_rho)
    num = den = 0.0
    for x, w in zip(xs, wx):
        # the cutoff's support at this x is a disc in (y, t); use polar coordinates
        top = math.sqrt(radius * radius - x * x)
        rho = 0.5 * top * (1.0 + rho_nodes)
        w_disc = (0.5 * top * rho_weights * rho)[:, None] * (2.0 * math.pi / n_angle)
        y = rho[:, None] * cos_t[None, :]
        t = rho[:, None] * sin_t[None, :]
        s = ((x * x + rho * rho) / (radius * radius))[:, None]
        phi = np.exp(-1.0 / (1.0 - s))
        # Euclidean gradient of phi is dphi * (x, y, t)
        dphi = -2.0 * phi / ((1.0 - s) ** 2 * radius * radius)
        xphi = dphi * (x + 2.0 * y * t)
        yphi = dphi * (y - 2.0 * x * t)
        # |grad_H(x^alpha phi)|^2 / x^(2 eps - 1), using X x = 1 and Y x = 0
        grad2 = alpha * alpha * phi * phi + 2.0 * alpha * x * phi * xphi + x * x * (
            xphi * xphi + yphi * yphi
        )
        num += w * float(np.sum(w_disc * grad2))
        den += w * n_angle * float(np.sum(w_disc * phi * phi))  # phi is radial in (y, t)
    return num, den


def sharpness_reference(eps, radius=1.0):
    """Reference p = 2 sharpness quotient: (q, spread) as in hardy_reference."""
    qs = [
        np.divide(*_sharpness_sums(float(eps), float(radius), n_x, n_rho, SHARPNESS_ANGLES))
        for n_x, n_rho in SHARPNESS_RESOLUTIONS
    ]
    return float(qs[1]), abs(float(qs[1] - qs[0])) / float(qs[1])


# Fixed inputs of the stored references: the first bump that seed 42 places
# on the t-axis half-space of each H^n (the CLI's default trial family, as
# its report labels print it), and the sharpness cutoff of radius 1.
PANEL = {
    1: ((-0.1753938419471941, 0.8226575396535634, 0.4449272324348158), 0.3449272324348158),
    2: (
        (-0.1753938419471941, 0.8226575396535634, 0.3234769591584352,
         1.1513014313742318, 0.9791739685337582),
        0.30316635441098394,
    ),
    3: (
        (-0.1753938419471941, 0.8226575396535634, 0.3234769591584352,
         1.1513014313742318, 0.9791739685337582, 0.7503970023454463, 0.3328663113603485),
        0.23286631136034844,
    ),
}
EPSILONS = (0.5, 0.2, 0.1, 0.05)
STORE = Path(__file__).with_name("references.json")


def regenerate() -> dict:
    """Every stored reference, with the resolutions that produced it."""
    hardy = []
    for n, (center, radius) in PANEL.items():
        dim = 2 * n + 1
        nu = np.eye(dim)[-1]
        for p, (q, spread) in hardy_reference(n, nu, 0.0, center, radius, (2.0, 3.0)).items():
            hardy.append({
                "group": f"heisenberg:{n}", "halfspace": "t-axis", "center": list(center),
                "radius": radius, "p": p, "quotient": q, "spread": spread,
                "resolutions": [list(r) for r in HARDY_RESOLUTIONS[dim]],
            })
    sharpness = []
    for eps in EPSILONS:
        q, spread = sharpness_reference(eps)
        sharpness.append({
            "group": "heisenberg:1", "halfspace": "x1-axis", "cutoff_radius": 1.0, "p": 2.0,
            "eps": eps, "quotient": q, "spread": spread,
            "resolutions": [list(r) for r in SHARPNESS_RESOLUTIONS], "angles": SHARPNESS_ANGLES,
        })
    return {"hardy": hardy, "sharpness": sharpness}


if __name__ == "__main__":
    STORE.write_text(json.dumps(regenerate(), indent=2) + "\n")
    print(f"wrote {STORE}", file=sys.stderr)
