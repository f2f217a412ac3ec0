"""Leading mode-1 growth rate from the Bessel dispersion relation.

The mode-1 problem mu Delta_1^2 Psi = lambda Delta_1 Psi on a <= r <= b has
Psi(a) = Psi(b) = 0, the stress-free row omega(b) = 0 and the slip row
omega(a) + (alpha/mu - 2/a) Psi'(a) = 0, with omega = Delta_1 Psi. Let
k^2 = |lambda| / mu. Then (Delta_1 -+ k^2) omega = 0, so with omega(b) = 0,

    omega(r) = I_1(kr) K_1(kb) - K_1(kr) I_1(kb)   for lambda > 0,
    omega(r) = J_1(kr) Y_1(kb) - Y_1(kr) J_1(kb)   for lambda < 0,

up to scale. Green's identity against h = r - b^2/r (Delta_1 h = 0,
h(b) = 0) gives Psi'(a) = -int omega h r dr / (a h(a)), with no r and 1/r
columns left to cancel. So lambda_1 = +- mu k^2 at the first root k of

    F(k) = omega(a) - (alpha/mu - 2/a) int omega h r dr / (a h(a)).

The I/K branch is scaled by e^{-k(b - a)} (``ive``, ``kve``), so nothing
overflows; the integral is 64-point Gauss-Legendre in ln r. As k -> 0,
omega tends to a multiple of h, which gives the critical viscosity
alpha/mu_c = 2/a + a h(a)^2 / int h^2 r dr. Above mu_c, lambda_1 < 0 is
the first root on the J/Y branch; below, the pencil has only one positive
eigenvalue (Courant-Fischer), the one root on the I/K branch.

This module imports nothing from ``annuflow``; ``scipy.special`` and
``scipy.optimize`` stay out of the package, whose import they would slow.
"""

import numpy as np
from scipy.optimize import brentq
from scipy.special import ive, jv, kve, yv

GAUSS_POINTS = 64


def _quadrature(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r and weights w with w @ f ~ int f(r) r dr over [a, b], from
    Gauss-Legendre in xi = ln r (r dr = r^2 dxi)."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = np.log(b / a) / 2.0
    r = a * np.exp(half * (x + 1.0))
    return r, w * half * r**2


def _h(r, b):
    return (r - b) * (r + b) / r


def mu_c(a: float, b: float, alpha: float, n: int = GAUSS_POINTS) -> float:
    """Critical viscosity, the k -> 0 limit of the dispersion relation."""
    r, w = _quadrature(a, b, n)
    return alpha / (2.0 / a + a * _h(a, b) ** 2 / (w @ _h(r, b) ** 2))


def _omega(k, r, a, b, growing: bool):
    """omega(r) for wavenumbers k (a column), scaled by e^{-k(b - a)} on the
    growing branch."""
    if not growing:
        return jv(1, k * r) * yv(1, k * b) - yv(1, k * r) * jv(1, k * b)
    return (ive(1, k * r) * kve(1, k * b) * np.exp(-k * (2.0 * b - r - a))
            - kve(1, k * r) * ive(1, k * b) * np.exp(-k * (r - a)))


def dispersion(a: float, b: float, alpha: float, mu: float, k,
               growing: bool, n: int = GAUSS_POINTS) -> np.ndarray:
    """F(k) on the growing (I/K) or decaying (J/Y) branch, for an array k."""
    r, w = _quadrature(a, b, n)
    k = np.asarray(k, float)[..., None]
    om = _omega(k, np.append(r, a), a, b, growing)
    integral = om[..., :-1] @ (w * _h(r, b))
    return om[..., -1] - (alpha / mu - 2.0 / a) * integral / (a * _h(a, b))


def leading_lambda(a: float, b: float, alpha: float, mu: float,
                   n: int = GAUSS_POINTS) -> float:
    """lambda_1 = +- mu k^2 at the first root k of F: a log-spaced scan of
    k (b - a) over [1e-6, 1e4] for the first sign change, then ``brentq``."""
    growing = mu < mu_c(a, b, alpha, n)
    ks = np.geomspace(1e-6, 1e4, 1001) / (b - a)
    f = dispersion(a, b, alpha, mu, ks, growing, n)
    change = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))
    if not len(change):
        raise ValueError(f"no root of the dispersion relation at mu = {mu}")
    i = change[0]
    k = brentq(lambda x: float(dispersion(a, b, alpha, mu, x, growing, n)),
               ks[i], ks[i + 1], xtol=1e-300, rtol=1e-15, maxiter=200)
    return mu * k**2 if growing else -mu * k**2
