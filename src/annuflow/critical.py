"""Critical viscosity: the Green-identity quadrature, the determinant oracle,
and the gamma_n constants.

At the critical viscosity the mode-1 problem has a zero eigenvalue, so
omega = Delta_1 Psi is harmonic and, by the stress-free row, vanishes at
b: omega is a multiple of h_1, where h_n = r^n - b^{2n} r^{-n} solves
Delta_n h_n = 0 with h_n(b) = 0. For any profile vanishing at both radii,
Green's identity gives a Psi'(a) h_n(a) = -int (Delta_n Psi) h_n r dr, so
by Cauchy-Schwarz the variational constant

    gamma_n = min int r (Delta_n Psi)^2 dr / Psi'(a)^2
            = a^2 h_n(a)^2 / int h_n^2 r dr,

and the slip row omega(a) + (alpha/mu - 2/a) Psi'(a) = 0 turns into
mu_c = a alpha / (2 + gamma_1). With x = ln(b/r) and X = ln(b/a),

    1 / gamma_n = int_0^X e^{(2n-2)(x-X)} [expm1(-2n x) / expm1(-2n X)]^2 dx,

a ratio of like-signed terms throughout, so it neither cancels in thin
gaps nor overflows in wide ones; GAMMA_NODES-point Clenshaw-Curtis
evaluates it.

Independently, the zero-eigenvalue problem Delta_1^2 Psi = 0 has the
general solution Psi = a1 r + a2 r ln r + a3 / r + a4 r^3; requiring the
four boundary conditions to admit a nontrivial combination gives a 4x4
determinant that vanishes exactly at the critical viscosity. The
determinant is transcribed verbatim; only its slip row depends on mu, and
affinely, so the determinant is affine in mu and has a single root, which
must agree with the quadrature to 1e-8 relative. The determinant cancels
in thin gaps and refuses gaps below ORACLE_MIN_GAP.
"""

from __future__ import annotations

import functools

import numpy as np

from .domain import DomainParams
from .errors import NoBracket, ThinGap
from .spectral import _clencurt_weights

#: Clenshaw-Curtis nodes of the gamma_n integral: against 90-digit mpmath,
#: mu_c is within 5.3e-16 relative for (b - a)/a from 1e-12 up to
#: RATIO_LIMIT and gamma_1..gamma_5 within 5.2e-16 at b/a from 1.001 to
#: 1e4; 96 nodes lose 8e-15 and 64 nodes 8e-11 at the widest gap
GAMMA_NODES = 128

# the rule on [0, 1], built once at import (about 0.8 ms) so that no call
# pays for it
_NODES = 0.5 * (1.0 + np.cos(np.pi * np.arange(GAMMA_NODES + 1) / GAMMA_NODES))
_WEIGHTS = 0.5 * _clencurt_weights(GAMMA_NODES)


def gamma_n(params: DomainParams, n: int) -> float:
    """Variational constant a^2 h_n(a)^2 / int h_n^2 r dr of mode n, by the
    Clenshaw-Curtis rule on [0, X] in x = ln(b/r)."""
    if n < 1:
        raise ValueError("gamma_n is defined for n >= 1")
    return _gamma(params.a, params.b, n)


@functools.lru_cache(maxsize=64)
def _gamma(a: float, b: float, n: int) -> float:
    """gamma_n of the radii (a, b), computed once per (a, b, n): a sweep
    asks for mu_c at every alpha of one b, and the reduction once more."""
    X = np.log1p((b - a) / a)
    x = X * _NODES
    f = np.exp((2 * n - 2) * (x - X)) * (np.expm1(-2 * n * x) / np.expm1(-2 * n * X)) ** 2
    return float(1.0 / (X * (_WEIGHTS @ f)))


def mu_c_closed(params: DomainParams) -> float:
    """Critical viscosity a alpha / (2 + gamma_1), a function of (a, b, alpha)
    alone."""
    return params.a * params.alpha / (2.0 + gamma_n(params, 1))


def det_condition(params: DomainParams, mu: float) -> float:
    """Determinant whose zero marks a nontrivial zero-eigenvalue solution.

    Rows: Psi(a) = 0, Psi(b) = 0, the stress-free row at b, and the
    Navier-slip row at a, each evaluated on the basis
    {r, r ln r, 1/r, r^3} and scaled as printed.
    """
    a, b, alpha = params.a, params.b, params.alpha
    la, lb = np.log(a), np.log(b)
    m = np.array([
        [a**2, a**2 * la, 1.0, a**4],
        [b**2, b**2 * lb, 1.0, b**4],
        [b**2, b**2 * (2.0 + lb), 1.0, 9.0 * b**4],
        [-a**2 * mu + alpha * a**3,
         a**3 * alpha - a**2 * mu * la + a**3 * alpha * la,
         3.0 * mu - a * alpha,
         3.0 * a**5 * alpha + 3.0 * a**4 * mu],
    ])
    return float(np.linalg.det(m))


#: thinnest gap (b - a)/a the determinant oracle accepts: it agrees with the
#: exact mu_c to 4.2e-9 there, 2.4e-8 at 1e-3 and 3.5e-4 at 1e-4
ORACLE_MIN_GAP = 2e-3


def mu_c_oracle(params: DomainParams) -> float:
    """Critical viscosity as the root of the determinant, affine in mu.

    The determinant's values at the ends of (1e-6 a alpha, 10 a alpha) fix
    the line and so its root; unless they are finite and differ in sign,
    NoBracket is raised (the determinant overflows from b/a near 3.3e50 at
    a = 1). Independent of the quadrature. Its basis is near-dependent as
    b -> a, so a gap below ORACLE_MIN_GAP raises ThinGap.
    """
    gap = (params.b - params.a) / params.a
    if gap < ORACLE_MIN_GAP:
        raise ThinGap(f"gap (b - a)/a = {gap:.3g} is below {ORACLE_MIN_GAP}, "
                      f"where the determinant oracle loses its digits")
    lo = 1e-6 * params.a * params.alpha
    hi = 10.0 * params.a * params.alpha
    with np.errstate(over="ignore", invalid="ignore"):
        f_lo, f_hi = det_condition(params, lo), det_condition(params, hi)
    if not np.isfinite([f_lo, f_hi]).all() or np.sign(f_lo) == np.sign(f_hi):
        raise NoBracket("determinant has no finite sign change in "
                        f"(1e-6 a alpha, 10 a alpha): {f_lo}, {f_hi}")
    return float(lo - f_lo * (hi - lo) / (f_hi - f_lo))

