"""Pseudo-spectral time integration of the nonlinear vorticity equation.

The streamfunction perturbation is expanded as

    psi(r, theta, t) = sum_{n=1}^{M} psi_n(r, t) e^{i n theta} + c.c.

and each mode evolves by

    d/dt Delta_n psi_n = mu Delta_n^2 psi_n + N_n(psi),

where N_n collects the advection contributions from all mode pairs with
n1 + n2 = n. Time stepping is IMEX: Crank-Nicolson on the stiff viscous
term, second-order Adams-Bashforth on the advection (one Euler startup
step), with the four boundary rows replaced directly in the per-mode
implicit system so psi stays the prognostic variable:

    (Delta_n - dt mu / 2 Delta_n^2) psi^{k+1}
        = (Delta_n + dt mu / 2 Delta_n^2) psi^k + dt (3/2 N^k - 1/2 N^{k-1}).

The advection sum is a direct modal convolution with 2/3 output truncation
(modes above K = 2M/3 receive no nonlinear forcing), which controls
aliasing exactly at desk-scale angular resolutions. The mean (n = 0) mode
is projected out each step by construction: the state stores n >= 1 only
and convolution output at n = 0 is discarded, keeping the dynamics inside
the zero-mean-swirl phase space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .bifurcation import EigenResult, lattice_velocity, mode_energies
from .domain import ModalField, DomainParams, synthesize_lattice
from .errors import CFLViolation, GridMismatch, NoEscape, SolverFailure
from .spectral import RadialGrid, laplacian_n, navier_slip_bcs


@dataclass(frozen=True)
class SimState:
    """Immutable snapshot: time, modal profiles for n = 1..M, and the
    previous step's advection terms (None before the first step)."""

    t: float
    psi: dict[int, np.ndarray] = field(repr=False)
    prev_nonlinear: dict[int, np.ndarray] | None = field(default=None, repr=False)

    def stacked(self) -> np.ndarray:
        """The profiles as one (M, N+1) array, row n - 1 holding mode n."""
        return np.array([self.psi[n] for n in sorted(self.psi)])

    def modal_fields(self) -> list[ModalField]:
        return [ModalField(n, c) for n, c in sorted(self.psi.items())]

    def rotated(self, theta0: float) -> "SimState":
        """The state rotated by theta0: mode n picks up e^{i n theta0}."""
        psi = {n: c * np.exp(1j * n * theta0) for n, c in self.psi.items()}
        prev = None
        if self.prev_nonlinear is not None:
            prev = {n: c * np.exp(1j * n * theta0)
                    for n, c in self.prev_nonlinear.items()}
        return SimState(t=self.t, psi=psi, prev_nonlinear=prev)


@dataclass(frozen=True)
class Diagnostics:
    """Energy functionals and amplitude sampled at one instant.

    E3 is the kinetic energy integral |v|^2; E1 is the gradient energy
    plus the outer-boundary tangential term; E2 is the inner-boundary
    tangential term. All are nonnegative; the linear balance is
    d/dt (E3/2) = -mu E1 + (alpha - mu/a) E2.
    """

    t: float
    E3: float
    E1: float
    E2: float
    max_psi: float
    mode_energies: tuple[float, ...]

    @property
    def vnorm(self) -> float:
        """L^2 norm of the velocity field, sqrt(E3)."""
        return float(np.sqrt(self.E3))


class Simulator:
    """IMEX stepper for a fixed (params, mu, grid, ntheta, dt) configuration.

    The per-mode implicit matrices are LU-factored once at construction.
    ``nonlinear=False`` drops the advection term entirely, so each mode
    evolves under its own linear operator (used for rate cross-checks).
    """

    def __init__(self, params: DomainParams, grid: RadialGrid, *,
                 mu: float | None = None, dt: float, ntheta: int = 32,
                 nonlinear: bool = True):
        if ntheta < 4 or ntheta % 2:
            raise GridMismatch(f"ntheta must be even and >= 4, got {ntheta}")
        if dt <= 0:
            raise CFLViolation(f"dt must be positive, got {dt}")
        self.params = params
        self.grid = grid
        self.mu = params.mu if mu is None else float(mu)
        self.dt = float(dt)
        self.ntheta = ntheta
        self.nonlinear = nonlinear
        self.M = ntheta // 2
        self.K = (2 * self.M) // 3
        N = grid.N
        self._bc_idx = [0, 1, N - 1, N]
        bc_rows = navier_slip_bcs(grid, params, mu=self.mu).rows
        self._lap = {}
        self._lhs = {}
        self._rhs = {}
        for n in range(1, self.M + 1):
            Ln = laplacian_n(grid, n).matrix
            LL = Ln @ Ln
            self._lap[n] = Ln
            A = Ln - 0.5 * self.dt * self.mu * LL
            A[self._bc_idx, :] = bc_rows
            try:
                self._lhs[n] = lu_factor(A)
            except Exception as exc:  # pragma: no cover
                raise SolverFailure(f"implicit factorization failed for mode {n}: {exc}")
            self._rhs[n] = Ln + 0.5 * self.dt * self.mu * LL
        # per-node advective cell sizes: radial spacing (distance to the
        # nearer neighbor) and local azimuthal arc length
        dr = np.abs(np.diff(grid.nodes))
        self._dr_local = np.minimum(np.append(dr, dr[-1]),
                                    np.append(dr[0], dr))
        self._arc_local = grid.nodes * 2.0 * np.pi / ntheta

    # ------------------------------------------------------------- state

    def zero_state(self) -> SimState:
        psi = {n: np.zeros(self.grid.N + 1, complex) for n in range(1, self.M + 1)}
        return SimState(t=0.0, psi=psi)

    def init_from_mode(self, eig: EigenResult, delta: float) -> SimState:
        """State delta * Psi_1 in the n = 1 slot, all other modes zero."""
        if delta < 0:
            raise ValueError(f"amplitude must be nonnegative, got {delta}")
        if len(eig.psi1) != self.grid.N + 1:
            raise GridMismatch("eigenfunction sampled on a different grid")
        st = self.zero_state()
        st.psi[1] = delta * eig.psi1.values.astype(complex)
        return st

    # ----------------------------------------------------------- physics

    def velocity_lattice(self, state: SimState) -> tuple[np.ndarray, np.ndarray]:
        """(v_r, v_theta) of the real field on the (r, theta) lattice."""
        return lattice_velocity(state.stacked(), self.grid, self.ntheta)

    def cfl_limit(self, state: SimState) -> float:
        """Largest admissible dt: 0.5 / max crossing rate, where each
        velocity component is measured against the cell size it crosses
        (radial spacing for v_r, local arc length for v_theta). Infinite
        for the zero state."""
        vr, vt = self.velocity_lattice(state)
        rate_r = (np.abs(vr) / self._dr_local[:, None]).max()
        rate_t = (np.abs(vt) / self._arc_local[:, None]).max()
        rate = max(rate_r, rate_t)
        return float(0.5 / rate) if rate > 0 else float("inf")

    def _advection(self, psi: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Modal convolution of -v . grad omega, truncated to n <= K."""
        r = self.grid.nodes
        d1 = self.grid.d1
        prof, dprof, om, dom = {}, {}, {}, {}
        for n in range(1, self.M + 1):
            c = psi[n]
            prof[n] = c
            dprof[n] = d1 @ c
            o = self._lap[n] @ c
            om[n] = o
            dom[n] = d1 @ o
            prof[-n] = np.conj(c)
            dprof[-n] = np.conj(dprof[n])
            om[-n] = np.conj(o)
            dom[-n] = np.conj(dom[n])
        out = {n: np.zeros(self.grid.N + 1, complex) for n in range(1, self.K + 1)}
        rng = list(range(-self.M, 0)) + list(range(1, self.M + 1))
        for n1 in rng:
            for n2 in rng:
                n = n1 + n2
                if 1 <= n <= self.K:
                    out[n] += 1j * (n1 * prof[n1] / r * dom[n2]
                                    - n2 * dprof[n1] / r * om[n2])
        return out

    def step(self, state: SimState) -> SimState:
        """Advance one dt. Raises CFLViolation when dt exceeds the
        per-cell advective limit (see :meth:`cfl_limit`)."""
        limit = self.cfl_limit(state)
        if self.dt > limit:
            raise CFLViolation(
                f"dt={self.dt} exceeds advective CFL limit {limit:.3e}")
        nl = self._advection(state.psi) if self.nonlinear else None
        new = {}
        for n in range(1, self.M + 1):
            rhs = self._rhs[n] @ state.psi[n]
            if nl is not None and n <= self.K:
                if state.prev_nonlinear is None:
                    rhs = rhs + self.dt * nl[n]
                else:
                    rhs = rhs + self.dt * (1.5 * nl[n]
                                           - 0.5 * state.prev_nonlinear[n])
            rhs[self._bc_idx] = 0.0
            new[n] = lu_solve(self._lhs[n], rhs)
        return SimState(t=state.t + self.dt, psi=new, prev_nonlinear=nl)

    # -------------------------------------------------------- diagnostics

    def _mode_energies(self, state: SimState) -> np.ndarray:
        """(E3, E1, E2) of each mode of the field, one row per mode."""
        return 4.0 * np.pi * np.array([mode_energies(self.params, c, self.grid, n)
                                       for n, c in sorted(state.psi.items())])

    def energies(self, state: SimState) -> tuple[float, float, float]:
        """(E3, E1, E2) for the pairs-convention field sum_n (c_n e^{in t} + c.c.)."""
        return tuple(self._mode_energies(state).sum(axis=0).tolist())

    def energy_rhs(self, state: SimState) -> float:
        """Linear energy-balance right-hand side -mu E1 + (alpha - mu/a) E2."""
        E3, E1, E2 = self.energies(state)
        return -self.mu * E1 + (self.params.alpha - self.mu / self.params.a) * E2

    def energy_residual(self, before: SimState, after: SimState) -> float:
        """Relative defect of d/dt (E3/2) = -mu E1 + (alpha - mu/a) E2 across
        one step, with the right side averaged over the two endpoint states
        (matching the scheme's second-order accuracy)."""
        dt = after.t - before.t
        if dt <= 0:
            raise GridMismatch("states are not consecutive")
        e0 = self.energies(before)[0]
        e1 = self.energies(after)[0]
        rhs = 0.5 * (self.energy_rhs(before) + self.energy_rhs(after))
        return abs(0.5 * (e1 - e0) / dt - rhs) / (abs(rhs) + 1e-300)

    def max_psi(self, state: SimState) -> float:
        return float(np.abs(synthesize_lattice(state.stacked(), self.ntheta)).max())

    def diagnostics(self, state: SimState) -> Diagnostics:
        per_mode = self._mode_energies(state)
        E3, E1, E2 = per_mode.sum(axis=0).tolist()
        return Diagnostics(t=state.t, E3=E3, E1=E1, E2=E2, max_psi=self.max_psi(state),
                           mode_energies=tuple(per_mode[:, 0].tolist()))

    def run(self, state: SimState, nsteps: int,
            sample_every: int = 1) -> tuple[SimState, list[Diagnostics]]:
        """Advance nsteps, sampling diagnostics every sample_every steps
        (the initial state is always sampled)."""
        diags = [self.diagnostics(state)]
        for k in range(1, nsteps + 1):
            state = self.step(state)
            if k % sample_every == 0 or k == nsteps:
                diags.append(self.diagnostics(state))
        return state, diags


def fit_growth_rate(diags: list[Diagnostics], *, lower: float = 1e-8,
                    saturation: float | None = None) -> float:
    """Least-squares slope of ln ||v|| over the clean exponential window.

    Samples with ||v|| <= lower (startup noise) are dropped; when a
    saturation scale is given, samples above 1e-3 * saturation (nonlinear
    contamination) are dropped too.
    """
    t = np.array([d.t for d in diags])
    v = np.array([d.vnorm for d in diags])
    keep = v > lower
    if saturation is not None:
        keep &= v < 1e-3 * saturation
    if keep.sum() < 2:
        raise SolverFailure("fewer than two samples in the growth-fit window")
    coef = np.polyfit(t[keep], np.log(v[keep]), 1)
    return float(coef[0])


def escape_experiment(sim: Simulator, eig: EigenResult, delta_list: list[float],
                      *, eps_thr: float, max_steps: int = 200_000
                      ) -> list[tuple[float, float]]:
    """Escape times: for each delta, the first t with ||v(t)|| > eps_thr.

    Requires a growing configuration (lambda_1 > 0 at the simulator's mu).
    The fitted slope of T vs ln(1/delta) estimates 1/lambda_1. Raises
    NoEscape when any delta fails to reach the threshold within max_steps.
    """
    if eig.lambda1 <= 0:
        raise NoEscape(f"no instability at mu={sim.mu}: lambda1={eig.lambda1}")
    out = []
    for delta in delta_list:
        state = sim.init_from_mode(eig, delta)
        if np.sqrt(sim.energies(state)[0]) >= eps_thr:
            out.append((delta, 0.0))
            continue
        escaped = False
        for _ in range(max_steps):
            state = sim.step(state)
            if np.sqrt(sim.energies(state)[0]) > eps_thr:
                out.append((delta, state.t))
                escaped = True
                break
        if not escaped:
            raise NoEscape(
                f"threshold {eps_thr} not reached from delta={delta} "
                f"within {max_steps} steps (t={state.t:.1f})")
    return out


def escape_slope(table: list[tuple[float, float]]) -> float:
    """Slope of T_delta against ln(1/delta); compare to 1/lambda_1."""
    x = np.log(1.0 / np.array([d for d, _ in table]))
    y = np.array([t for _, t in table])
    if len(x) < 2:
        raise ValueError("need at least two escape samples")
    return float(np.polyfit(x, y, 1)[0])
