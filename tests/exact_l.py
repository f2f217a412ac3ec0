"""Exact Lyapunov coefficient of the pitchfork at the critical viscosity.

At mu = mu_c the critical mode solves Delta_1^2 Psi = 0, so Psi_1 lies in
the span of r, r ln r, 1/r and r^3. The span of the functions
r^k (ln r)^m is closed under d/dr, products, Delta_n and a particular
inverse of Delta_n, and r^k (ln r)^m has a closed-form integral. So every
step of the reduction (Psi_1, the quadratic coefficient G11 and the ratio
of integrals that gives l) is exact algebra, carried out here in mpmath at
a chosen working precision. The reduction follows Ma & Wang, *Phase
Transition Dynamics* (2nd ed., 2019), in the form annuflow implements; the
model is restated below and nothing is imported from annuflow:

- The boundary rows, for every wavenumber: psi(b) = 0 and
  psi'' + psi'/b = 0 at r = b; psi'' - (1/a - alpha/mu) psi' = 0 and
  psi(a) = 0 at r = a.
- Psi_1 spans the kernel of the mode-1 rows. Only the slip row depends on
  mu, so Psi_1 is the null vector of the other three rows, and mu_c is the
  mu at which it meets the slip row too. Psi_1 has unit int |Psi_1|^2 r dr
  and Psi_1'(a) > 0.
- lambda_1 = 0 at mu_c, so mu_c Delta_2^2 G11 = -G(Psi_1, 1, Psi_1, 1)
  under the same rows, where
  G(f, nf, g, ng) = i (nf f / r (Delta_ng g)' - ng f' / r Delta_ng g).
- In the energy pairing, with c = conj(Psi_1),
  l = int [G(c, -1, G11, 2) + G(G11, 2, c, -1)] c r dr
      / int (Delta_1 Psi_1) c r dr.

The monomial coefficients cancel heavily in thin gaps and at large b/a.
Evaluate at a working precision and again some 20 digits higher, and keep
the digits on which the two runs agree.

Run as a script to print l at (1, 3, 5):  python tests/exact_l.py
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from mpmath import mp


class Span:
    """A finite sum of c r^k (ln r)^m, held as {(k, m): c}."""

    def __init__(self, terms: dict | None = None):
        self.terms = dict(terms or {})

    def __add__(self, other: Span) -> Span:
        return _collect([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: Span) -> Span:
        return self + other * -1

    def __mul__(self, other) -> Span:
        if not isinstance(other, Span):
            return Span({km: c * other for km, c in self.terms.items()})
        return _collect(((k1 + k2, m1 + m2), c1 * c2)
                        for (k1, m1), c1 in self.terms.items()
                        for (k2, m2), c2 in other.terms.items())

    def conj(self) -> Span:
        return Span({km: mp.conj(c) for km, c in self.terms.items()})

    def rpow(self, j: int) -> Span:
        """r^j times this function."""
        return Span({(k + j, m): c for (k, m), c in self.terms.items()})

    def d(self) -> Span:
        """d/dr of r^k L^m is k r^(k-1) L^m + m r^(k-1) L^(m-1)."""
        return _collect(((k - 1, m - s), w * c)
                        for (k, m), c in self.terms.items()
                        for s, w in ((0, k), (1, m)) if w)

    def lap(self, n: int) -> Span:
        """Delta_n r^k L^m = r^(k-2) [(k^2 - n^2) L^m + 2 k m L^(m-1)
        + m (m - 1) L^(m-2)]."""
        return _collect(((k - 2, m - s), w * c)
                        for (k, m), c in self.terms.items()
                        for s, w in ((0, k * k - n * n), (1, 2 * k * m),
                                     (2, m * (m - 1))) if w)

    def lap_inv(self, n: int) -> Span:
        """A particular f with Delta_n f = self.

        The part r^k P(L) of self, P a polynomial of degree p, comes from
        r^(k+2) Q(L), with Q solved from the top power down: Q has degree p,
        or p + 1 at the resonant powers k + 2 = +-n, where Delta_n kills
        r^(k+2) itself."""
        out = {}
        for k in {k for k, _ in self.terms}:
            j = k + 2
            q = {}
            for p in range(max(m for kk, m in self.terms if kk == k), -1, -1):
                rhs = self.terms.get((k, p), 0) - (p + 2) * (p + 1) * q.get(p + 2, 0)
                if j * j == n * n:
                    q[p + 1] = rhs / (2 * j * (p + 1))
                else:
                    q[p] = (rhs - 2 * j * (p + 1) * q.get(p + 1, 0)) / (j * j - n * n)
            out.update({(j, m): c for m, c in q.items()})
        return Span(out)

    def at(self, r):
        r = mp.mpf(r)
        lr = mp.log(r)
        return mp.fsum(c * r**k * lr**m for (k, m), c in self.terms.items())

    def integral(self, a, b):
        """int_a^b of this function dr, from the antiderivatives
        L^(m+1) / (m+1) for k = -1 and otherwise
        r^(k+1) sum_j (-1)^j m! / (m-j)! L^(m-j) / (k+1)^(j+1)."""
        prim = _collect(
            ((0, m + 1), c / (m + 1)) if k == -1 else
            ((k + 1, m - j), c * (-1) ** j * factorial(m) / factorial(m - j)
             / mp.mpf(k + 1) ** (j + 1))
            for (k, m), c in self.terms.items()
            for j in range(1 if k == -1 else m + 1))
        return prim.at(b) - prim.at(a)


def _collect(pairs) -> Span:
    """The Span of the summed ((k, m), c) pairs."""
    out = {}
    for km, c in pairs:
        out[km] = out.get(km, 0) + c
    return Span(out)


def monomial(k: int, m: int = 0) -> Span:
    return Span({(k, m): mp.mpf(1)})


def interaction(f: Span, nf: int, g: Span, ng: int) -> Span:
    """G(f, nf, g, ng) = i (nf f / r (Delta_ng g)' - ng f' / r Delta_ng g)."""
    om = g.lap(ng)
    return (f.rpow(-1) * om.d() * nf - f.d().rpow(-1) * om * ng) * mp.mpc(0, 1)


def boundary_rows(f: Span, a, b, slip) -> list:
    """psi(b), the stress-free row at b, psi(a), then the slip row at a;
    ``slip`` is alpha / mu, None to omit the slip row."""
    d1, d2 = f.d(), f.d().d()
    rows = [f.at(b), d2.at(b) + d1.at(b) / b, f.at(a)]
    if slip is not None:
        rows.append(d2.at(a) - (1 / a - slip) * d1.at(a))
    return rows


@dataclass(frozen=True)
class Exact:
    """The reduction at mu_c, each profile as a Span."""

    mu_c: object
    psi1: Span
    g11: Span
    l: object  # complex; its imaginary part is the pairing's residue


def exact_reduction(a: float, b: float, alpha: float, dps: int = 50) -> Exact:
    """Psi_1, mu_c, G11 and l at (a, b, alpha), to ``dps`` working digits."""
    with mp.workdps(dps):
        a, b, alpha = mp.mpf(a), mp.mpf(b), mp.mpf(alpha)
        basis = [monomial(1), monomial(1, 1), monomial(-1), monomial(3)]
        # null vector of the three mu-free rows, by cofactors
        cols = [boundary_rows(f, a, b, None) for f in basis]
        coef = [(-1) ** j * mp.det(mp.matrix([c for i, c in enumerate(cols)
                                               if i != j]))
                for j in range(4)]
        psi = sum((f * c for f, c in zip(basis, coef)), Span())
        d1a, d2a = psi.d().at(a), psi.d().d().at(a)
        mu_c = alpha * d1a / (d1a / a - d2a)
        psi = psi * (1 / mp.sqrt((psi * psi).rpow(1).integral(a, b)))
        if psi.d().at(a) < 0:
            psi = psi * -1

        slip = alpha / mu_c
        part = (interaction(psi, 1, psi, 1) * (-1 / mu_c)).lap_inv(2).lap_inv(2)
        homog = [monomial(2), monomial(-2), monomial(4), monomial(0)]
        m4 = mp.matrix([boundary_rows(f, a, b, slip) for f in homog]).T
        c = mp.lu_solve(m4, mp.matrix(boundary_rows(part, a, b, slip)) * -1)
        g11 = part + sum((f * c[i] for i, f in enumerate(homog)), Span())

        cj = psi.conj()
        total = interaction(cj, -1, g11, 2) + interaction(g11, 2, cj, -1)
        num = (total * cj).rpow(1).integral(a, b)
        den = (psi.lap(1) * cj).rpow(1).integral(a, b)
        return Exact(mu_c=mu_c, psi1=psi, g11=g11, l=num / den)


if __name__ == "__main__":
    print(mp.nstr(exact_reduction(1, 3, 5).l, 15))
