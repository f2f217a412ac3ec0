"""Pseudo-spectral time integration of the nonlinear vorticity equation.

The streamfunction perturbation is expanded as

    psi(r, theta, t) = sum_{n=1}^{M} psi_n(r, t) e^{i n theta} + c.c.,

with M = ntheta / 2, and the state is one (M, N+1) complex array whose
row n - 1 holds psi_n. Each mode evolves by

    d/dt Delta_n psi_n = mu Delta_n^2 psi_n + N_n(psi),

where N_n is mode n of the advection -v . grad omega, omega = Delta psi.
Time stepping is IMEX: Crank-Nicolson on the stiff viscous term,
second-order Adams-Bashforth on the advection (one Euler startup step),
with the per-mode implicit system formed from the mode's pencil
(:func:`annuflow.spectral.mode_pencil`), whose four boundary rows it keeps
at unit scale, so psi stays the prognostic variable:

    lhs psi^{k+1} = Z (rhs psi^k + dt F^k),   F^k = 3/2 N^k - 1/2 N^{k-1},

with lhs = Delta_n - dt mu / 2 Delta_n^2 (boundary rows replaced by the
pencil's), rhs = Delta_n + dt mu / 2 Delta_n^2, and Z the identity with
the boundary rows zeroed. The step applies precomputed propagators
instead of solving: psi^{k+1} = P psi^k + Q F^k with P = lhs^-1 Z rhs and
Q = dt lhs^-1 Z. All M of them come from one batched LU solve
(:func:`lu_solve`, numpy's LAPACK gesv: an LU factorization with partial
pivoting and its two triangular solves) of the stacked lhs against
[Z rhs | I], which gives P and lhs^-1 together, so the simulator needs no
scipy. The products meet the boundary rows A_bc psi = 0 only to about
1e-9 of max|psi|, so each step re-imposes them exactly by
psi -= W (A_bc psi), W = lhs^-1 E_bc, with E_bc the boundary columns of
the identity (so A_bc W = I). All products act on the real (M, N+1, 2)
view of the complex state. Dedalus steps its linear part the same way
(Burns et al., Phys. Rev. Research 2, 023068, 2020).

The advection is a pseudo-spectral product. One product of the per-mode
stack S_n = [Delta_n; d1 Delta_n] with the real pairs view of the state
gives omega and d omega/dr, and one product with d1 gives v_theta. The
four lattice fields v_r = -i n psi / r, v_theta, d omega/dr and
i n omega / r are synthesized by one batched inverse FFT on the doubled
lattice of L = 2 ntheta angles, multiplied pointwise and transformed back
with one real FFT. Only modes n <= K = 2M/3 are kept (the rest receive no
nonlinear forcing); since L = 4M >= 2M + K + 1, those modes are free of
aliasing (Orszag's rule). The mean (n = 0) mode is dropped the same way,
keeping the dynamics inside the zero-mean-swirl phase space. The CFL
check reads the same velocity on the even columns, which form the ntheta
lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bifurcation import EigenResult, energy_growth, kinetic_energy, mode_energies
from .domain import DomainParams, synthesize_lattice
from .errors import CFLViolation, GridMismatch, NoEscape, SolverFailure
from .spectral import BC_ROWS, RadialGrid, laplacian_n, mode_pencil


#: ||v|| at or below which fit_growth_rate drops a sample as startup noise
GROWTH_FLOOR = 1e-8
#: steps after which escape_experiment gives up on one delta
ESCAPE_MAX_STEPS = 200_000


def lu_solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs^-1 rhs for a stack of square matrices and right-hand sides,
    by one batched LU solve; SolverFailure when a matrix is singular."""
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"singular implicit matrix: {exc}") from exc


def _pairs(z: np.ndarray) -> np.ndarray:
    """The (..., 2) real view of a complex array, on which a real matrix
    acts without being recast to complex."""
    return np.ascontiguousarray(z, complex).view(float).reshape(*z.shape, 2)


@dataclass(frozen=True)
class SimState:
    """Immutable snapshot: time, the (M, N+1) modal profiles (row n - 1
    holds mode n), and the previous step's advection terms in the same
    layout (None before the first step)."""

    t: float
    psi: np.ndarray = field(repr=False)
    prev_nonlinear: np.ndarray | None = field(default=None, repr=False)

    def rotated(self, theta0: float) -> "SimState":
        """The state rotated by theta0: mode n picks up e^{i n theta0}."""
        phase = np.exp(1j * np.arange(1, len(self.psi) + 1) * theta0)[:, None]
        prev = None if self.prev_nonlinear is None else phase * self.prev_nonlinear
        return SimState(t=self.t, psi=phase * self.psi, prev_nonlinear=prev)


@dataclass(frozen=True)
class Diagnostics:
    """Energy functionals and amplitude sampled at one instant.

    E3 is the kinetic energy integral |v|^2; E1 is the gradient energy
    plus the outer-boundary tangential term; E2 is the inner-boundary
    tangential term. All are nonnegative; the linear balance is
    d/dt (E3/2) = -mu E1 + (alpha - mu/a) E2. ``energy_residual`` is
    that balance's relative defect across the step that ended here (see
    :meth:`Simulator.energy_residual`); :meth:`Simulator.run` fills it in
    on every sample but the initial one.
    """

    t: float
    E3: float
    E1: float
    E2: float
    max_psi: float
    mode_energies: tuple[float, ...]
    energy_residual: float | None = None

    @property
    def vnorm(self) -> float:
        """L^2 norm of the velocity field, sqrt(E3)."""
        return float(np.sqrt(self.E3))


class Simulator:
    """IMEX stepper for a fixed (params, mu, grid, ntheta, dt) configuration.

    dt must be positive and finite (ValueError). The propagators P, Q and W
    (see the module docstring) are formed once at construction; a singular
    implicit matrix raises SolverFailure there. ``nonlinear=False`` drops
    the advection term entirely, so each mode evolves under its own linear
    operator (used for rate cross-checks).
    """

    def __init__(self, params: DomainParams, grid: RadialGrid, *,
                 mu: float, dt: float, ntheta: int = 32, nonlinear: bool = True):
        if ntheta < 4 or ntheta % 2:
            raise GridMismatch(f"ntheta must be even and >= 4, got {ntheta}")
        if not (dt > 0 and np.isfinite(dt)):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        self.params = params
        self.grid = grid
        self.mu = float(mu)
        self.dt = float(dt)
        self.ntheta = ntheta
        self.nonlinear = nonlinear
        self.M = ntheta // 2
        self.K = (2 * self.M) // 3
        self._n = np.arange(1, self.M + 1)[:, None]
        modes = range(1, self.M + 1)
        # omega needs the boundary-node rows of Delta_n that the mass zeroes;
        # one product with S_n = [Delta_n; d1 Delta_n] gives omega and d omega/dr
        lap = np.array([laplacian_n(grid, n) for n in modes])
        self._S = np.concatenate([lap, grid.d1 @ lap], axis=1)
        pencils = [mode_pencil(grid, params, self.mu, n) for n in modes]
        A = np.array([p.matrix for p in pencils])
        B = np.array([p.mass for p in pencils])
        lhs = B - 0.5 * self.dt * A
        # unit-scale boundary rows: scaled by dt/2, the LU meets them 1,000x worse
        lhs[:, BC_ROWS] = A[:, BC_ROWS]
        rhs = B + 0.5 * self.dt * A
        rhs[:, BC_ROWS] = 0.0
        # one batched solve against [Z rhs | I] gives P and lhs^-1
        n1 = grid.N + 1
        sol = lu_solve(lhs, np.concatenate(
            [rhs, np.broadcast_to(np.eye(n1), rhs.shape)], axis=2))
        # a nearly singular matrix can overflow without a zero pivot
        if not np.isfinite(sol).all():
            raise SolverFailure("non-finite implicit propagator (singular matrix)")
        inv = sol[:, :, n1:]
        self._P = np.ascontiguousarray(sol[:, :, :n1])
        self._W = inv[:, :, BC_ROWS]
        inv[:, :, BC_ROWS] = 0.0
        self._Q = self.dt * inv[:self.K]
        self._A_bc = A[:, BC_ROWS]
        # per-node advective cell sizes: radial spacing (distance to the
        # nearer neighbor) and local azimuthal arc length
        dr = np.abs(np.diff(grid.nodes))
        self._dr_local = np.minimum(np.append(dr, dr[-1]),
                                    np.append(dr[0], dr))
        self._arc_local = grid.nodes * 2.0 * np.pi / ntheta

    # ------------------------------------------------------------- state

    def zero_state(self) -> SimState:
        return SimState(t=0.0, psi=np.zeros((self.M, self.grid.N + 1), complex))

    def init_from_mode(self, eig: EigenResult, delta: float) -> SimState:
        """delta * Psi_1 (finite delta >= 0) in the n = 1 row, all other modes zero."""
        if not (delta >= 0 and np.isfinite(delta)):
            raise ValueError(f"amplitude must be nonnegative and finite, got {delta}")
        if len(eig.psi1) != self.grid.N + 1:
            raise GridMismatch("eigenfunction sampled on a different grid")
        st = self.zero_state()
        st.psi[0] = delta * eig.psi1
        return st

    # ----------------------------------------------------------- physics

    def cfl_limit(self, vr: np.ndarray, vt: np.ndarray) -> float:
        """Largest admissible dt for the velocity (v_r, v_theta) on the
        ntheta lattice: 0.5 / max crossing rate, where each component is
        measured against the cell size it crosses (radial spacing for v_r,
        local arc length for v_theta). Infinite for a zero velocity."""
        rate_r = (np.abs(vr) / self._dr_local[:, None]).max()
        rate_t = (np.abs(vt) / self._arc_local[:, None]).max()
        rate = max(rate_r, rate_t)
        return float(0.5 / rate) if rate > 0 else float("inf")

    def step(self, state: SimState) -> SimState:
        """Advance one dt. Raises CFLViolation when dt exceeds the
        per-cell advective limit (see :meth:`cfl_limit`) and SolverFailure
        when the new state is not finite (a blown-up run)."""
        psi, r, n1 = state.psi, self.grid.nodes, self.grid.N + 1
        L = 2 * self.ntheta
        p = _pairs(psi)
        # v_r, v_theta and, for the advection, d omega/dr and
        # (1/r) d omega/dtheta on the L lattice
        fields = [-1j * self._n * psi / r, (self.grid.d1 @ p).view(complex)[..., 0]]
        if self.nonlinear:
            omega = (self._S @ p).view(complex)[..., 0]
            fields += [omega[:, n1:], 1j * self._n * omega[:, :n1] / r]
        f = synthesize_lattice(np.stack(fields), L)
        limit = self.cfl_limit(f[0][:, ::2], f[1][:, ::2])
        if self.dt > limit:
            raise CFLViolation(
                f"dt={self.dt} exceeds advective CFL limit {limit:.3e}")
        new = self._P @ p
        nl = None
        if self.nonlinear:
            adv = -(f[0] * f[2] + f[1] * f[3])
            nl = np.zeros_like(psi)
            nl[:self.K] = (np.fft.rfft(adv, axis=1)[:, 1:self.K + 1] / L).T
            force = nl if state.prev_nonlinear is None else (
                1.5 * nl - 0.5 * state.prev_nonlinear)
            new[:self.K] += self._Q @ _pairs(force[:self.K])
        # re-impose the boundary rows, which the products meet only to ~1e-9
        new = (new - self._W @ (self._A_bc @ new)).view(complex)[..., 0]
        if not np.isfinite(new).all():
            raise SolverFailure(f"non-finite state at t={state.t + self.dt:.6g}")
        return SimState(t=state.t + self.dt, psi=new, prev_nonlinear=nl)

    # -------------------------------------------------------- diagnostics

    def _mode_energies(self, state: SimState) -> np.ndarray:
        """(E3, E1, E2) of each mode of the field, one row per mode."""
        return 4.0 * np.pi * np.column_stack(
            mode_energies(self.params, state.psi, self.grid, self._n))

    def energies(self, state: SimState) -> tuple[float, float, float]:
        """(E3, E1, E2) for the pairs-convention field sum_n (c_n e^{in t} + c.c.)."""
        return tuple(self._mode_energies(state).sum(axis=0).tolist())

    def kinetic_energy(self, state: SimState) -> float:
        """E3 of :meth:`energies` alone, ||v||^2."""
        return float((4.0 * np.pi * kinetic_energy(state.psi, self.grid, self._n)).sum())

    def energy_residual(self, before: SimState, after: SimState) -> float:
        """Relative defect of the balance of :class:`Diagnostics` across one
        step, its right side (:func:`energy_growth`) averaged over the two
        endpoint states (matching the scheme's second-order accuracy)."""
        dt = after.t - before.t
        if dt <= 0:
            raise GridMismatch("states are not consecutive")
        return self._balance_defect(self.energies(before), self.energies(after), dt)

    def _balance_defect(self, before: tuple, after: tuple, dt: float) -> float:
        """:meth:`energy_residual` from the (E3, E1, E2) of both states."""
        (e0, E1a, E2a), (e1, E1b, E2b) = before, after
        rhs = 0.5 * (energy_growth(self.params, self.mu, E1a, E2a)
                     + energy_growth(self.params, self.mu, E1b, E2b))
        return abs(0.5 * (e1 - e0) / dt - rhs) / (abs(rhs) + 1e-300)

    def max_psi(self, state: SimState) -> float:
        return float(np.abs(synthesize_lattice(state.psi, self.ntheta)).max())

    def diagnostics(self, state: SimState) -> Diagnostics:
        per_mode = self._mode_energies(state)
        E3, E1, E2 = per_mode.sum(axis=0).tolist()
        return Diagnostics(t=state.t, E3=E3, E1=E1, E2=E2, max_psi=self.max_psi(state),
                           mode_energies=tuple(per_mode[:, 0].tolist()))

    def run(self, state: SimState, nsteps: int,
            sample_every: int = 1) -> tuple[SimState, list[Diagnostics]]:
        """Advance nsteps, sampling diagnostics every sample_every steps
        and after the last (the initial state is always sampled). Each
        sample but the initial one carries the energy residual of the step
        that ended there."""
        if nsteps < 0 or sample_every < 1:
            raise ValueError(f"need nsteps >= 0 and sample_every >= 1, got "
                             f"{nsteps} and {sample_every}")
        diags = [self.diagnostics(state)]
        for k in range(1, nsteps + 1):
            prev, state = state, self.step(state)
            if k % sample_every == 0 or k == nsteps:
                d = self.diagnostics(state)
                diags.append(replace(d, energy_residual=self._balance_defect(
                    self.energies(prev), (d.E3, d.E1, d.E2), d.t - prev.t)))
        return state, diags


def fit_growth_rate(diags: list[Diagnostics], *,
                    saturation: float | None = None) -> float:
    """Least-squares slope of ln ||v|| over the clean exponential window.

    Samples with ||v|| <= GROWTH_FLOOR (startup noise) are dropped; when a
    saturation scale is given, samples above 1e-3 * saturation (nonlinear
    contamination) are dropped too.
    """
    t = np.array([d.t for d in diags])
    v = np.array([d.vnorm for d in diags])
    keep = v > GROWTH_FLOOR
    if saturation is not None:
        keep &= v < 1e-3 * saturation
    if keep.sum() < 2:
        raise SolverFailure("fewer than two samples in the growth-fit window")
    coef = np.polyfit(t[keep], np.log(v[keep]), 1)
    return float(coef[0])


def escape_experiment(sim: Simulator, eig: EigenResult, delta_list: list[float],
                      *, eps_thr: float) -> list[tuple[float, float]]:
    """Escape times: for each delta, the first t with ||v(t)|| >= eps_thr.

    Raises ValueError unless eps_thr and every delta are positive (the zero
    state never grows), and NoEscape without growth (lambda_1 <= 0 at the
    simulator's mu) or when a delta does not reach the threshold within
    ESCAPE_MAX_STEPS. The slope of T vs ln(1/delta) estimates 1/lambda_1.
    """
    if not (eps_thr > 0 and all(d > 0 for d in delta_list)):
        raise ValueError(f"need eps_thr > 0 and deltas > 0, got {eps_thr}, {delta_list}")
    if eig.lambda1 <= 0:
        raise NoEscape(f"no instability at mu={sim.mu}: lambda1={eig.lambda1}")
    out = []
    for delta in delta_list:
        state, steps = sim.init_from_mode(eig, delta), 0
        while sim.kinetic_energy(state) < eps_thr**2:
            if steps == ESCAPE_MAX_STEPS:
                raise NoEscape(f"threshold {eps_thr} not reached from delta={delta} "
                               f"within {ESCAPE_MAX_STEPS} steps (t={state.t:.1f})")
            state, steps = sim.step(state), steps + 1
        out.append((delta, state.t))
    return out


def escape_slope(table: list[tuple[float, float]]) -> float:
    """Slope of T_delta against ln(1/delta); compare to 1/lambda_1."""
    x = np.log(1.0 / np.array([d for d, _ in table]))
    y = np.array([t for _, t in table])
    if len(x) < 2:
        raise ValueError("need at least two escape samples")
    return float(np.polyfit(x, y, 1)[0])
