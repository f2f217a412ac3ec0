"""Pseudo-spectral time integration of the nonlinear vorticity equation.

The streamfunction perturbation is expanded as

    psi(r, theta, t) = sum_{n=1}^{K} psi_n(r, t) e^{i n theta} + c.c.,

with K = (ntheta - 1) // 3, the modes that the ntheta lattice de-aliases.
The state is held as real planes: one (K, 2, N+1) array X with
X[n-1, 0] = Re psi_n and X[n-1, 1] = Im psi_n. Each mode evolves by

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
Q = dt lhs^-1 Z. All K of them come from one batched LU solve
(:func:`lu_solve`, numpy's LAPACK gesv) of the stacked lhs against
[Z rhs | I], which gives P and lhs^-1 together. The products meet the
boundary rows A_bc psi = 0 only to about 1e-9 of max|psi|, so each step
re-imposes them exactly by psi -= W (A_bc psi), W = lhs^-1 E_bc, with
E_bc the boundary columns of the identity (so A_bc W = I); A_bc, the
rows of :func:`annuflow.spectral.navier_slip_bcs`, is one block for every
mode. Being real, the propagators act on both planes of a mode at once,
transposed: P and Q in one product [X | F] [P^T; Q^T] of the planes X
and forcing F side by side, then X - (X A_bc^T) W^T. Dedalus steps its
linear part the same way (Burns et al., Phys. Rev. Research 2, 023068,
2020).

The advection is a pseudo-spectral product, computed on the planes with
no complex arithmetic and no FFT. One product X S_n^T of the planes with
the per-mode stack S_n = [Delta_n; d1 Delta_n], held transposed, gives
omega and d omega/dr, and bifurcation.modal_velocity gives v_r and
v_theta. -i n / r swaps the two planes with a sign, so v_r = -i n psi / r
and -(1/r) d omega/dtheta cost one scaled copy each. The four lattice
fields are one product with the (L, 2K) table of 2 cos(m theta_l) and
-2 sin(m theta_l) of :func:`annuflow.domain.synthesis_table` on the
L = ntheta angles. They are multiplied pointwise, and one product with the
(2K, L) analysis table, that table transposed and divided by 2L, gives the
planes of the forcing directly. The product holds modes up to 2K, and on
L >= 3K + 1 angles none of them aliases onto a mode n <= K: this is the
2/3-rule Galerkin truncation (Orszag, J. Atmos. Sci. 28 (1971) 1074; Boyd,
Chebyshev and Fourier Spectral Methods, 2nd ed., ch. 11). The mean
(n = 0) mode is dropped the same way, keeping the dynamics inside the
zero-mean-swirl phase space. The CFL check and ``Diagnostics.max_psi``
read the same table, which costs O(K L) per radius against an FFT's
O(L log L): up to ntheta = 64 the few large products are the faster step.

Planes may carry leading batch axes, (..., K, 2, N+1), for many states of
one configuration. :meth:`Simulator.step`, :meth:`Simulator.cfl_limit`
and :meth:`Simulator.kinetic_energy` take such a batch in one pass, and
each member comes out bit for bit as its own call gives it: every product
runs once per member, at the member's own size, because BLAS rounds a
product differently as its row count changes. ``diagnostics``, the one
reading of a state, and ``energies``, ``energy_residual`` and ``run``,
which read it, take one state; they raise GridMismatch on a batch.
:func:`escape_experiment` steps all its deltas as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bifurcation import (EigenResult, energy_growth, modal_velocity, mode_energies,
                          mode_kinetic_energy, velocity_factor)
from .domain import DomainParams, synthesis_table
from .errors import CFLViolation, GridMismatch, NoEscape, SolverFailure
from .spectral import BC_ROWS, RadialGrid, laplacian_n, mode_pencil, navier_slip_bcs


#: ||v|| at or below which a sample is rounding: no growth fit, no energy residual
GROWTH_FLOOR = 1e-8
#: energy outside the leading mode, per its own, above which fit_growth_rate drops a sample
DOMINANCE = 1e-6
#: steps after which escape_experiment gives up on one delta
ESCAPE_MAX_STEPS = 200_000


def _sum_modes(e: np.ndarray) -> np.ndarray:
    """e summed over its last axis in mode order: the one sum of
    diagnostics and kinetic_energy, so that their E3 agree bit for bit."""
    return np.add.accumulate(e, axis=-1)[..., -1]


def lu_solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs^-1 rhs for a stack of square matrices and right-hand sides,
    by one batched LU solve; SolverFailure when a matrix is singular."""
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"singular implicit matrix: {exc}") from exc


@dataclass(frozen=True)
class SimState:
    """Immutable snapshot: time, the real planes (..., K, 2, N+1) of the
    modal profiles (row n - 1 holds mode n, plane 0 its real and plane 1
    its imaginary part), and the planes of the previous step's advection,
    of the same shape (None before the first step). Leading axes, if any,
    hold a batch of states that share t. Both arrays become read-only;
    anything but such real planes raises GridMismatch.
    """

    t: float
    planes: np.ndarray = field(repr=False)
    prev_planes: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        X, prev = self.planes, self.prev_planes
        if not (isinstance(X, np.ndarray) and X.dtype.kind == "f" and X.ndim >= 3
                and X.shape[-2] == 2):
            raise GridMismatch("a state takes real (..., K, 2, N+1) planes")
        if prev is not None and not (isinstance(prev, np.ndarray) and prev.dtype == X.dtype
                                     and prev.shape == X.shape):
            raise GridMismatch("the previous advection takes planes like the state's")
        X.setflags(write=False)
        if prev is not None:
            prev.setflags(write=False)

    def rotated(self, theta0: float) -> "SimState":
        """The state rotated by theta0: mode n picks up e^{i n theta0}, a
        rotation of its two planes by n theta0."""
        angle = np.arange(1, self.planes.shape[-3] + 1) * theta0
        c, s = np.cos(angle), np.sin(angle)
        rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
        prev = self.prev_planes
        return SimState(self.t, rot @ self.planes,
                        None if prev is None else rot @ prev)


@dataclass(frozen=True)
class Diagnostics:
    """Energy functionals and amplitude sampled at one instant.

    E3 is the kinetic energy integral |v|^2, ``mode_energies`` its part in
    each mode; E1 is the gradient energy plus the outer-boundary tangential
    term; E2 is the inner-boundary tangential term. All are nonnegative;
    the linear balance is d/dt (E3/2) = -mu E1 + (alpha - mu/a) E2.
    ``energy_residual``, set by :meth:`Simulator.run` on the later samples
    above GROWTH_FLOOR, is that balance's defect across the step that ended
    here relative to the size of its terms, mu E1 + |alpha - mu/a| E2.
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

    Its states carry the K = (ntheta - 1) // 3 modes that the ntheta
    lattice de-aliases, so 3K + 1 <= ntheta; a state of another shape, or
    a batch where a method reads one state, raises GridMismatch. dt must
    be positive and finite (ValueError). The propagators P, Q and W (see
    the module docstring) are formed once at construction; a singular
    implicit matrix raises SolverFailure there.
    ``nonlinear=False`` drops the advection term entirely, so each mode
    evolves under its own linear operator (used for rate cross-checks).
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
        self.K = (ntheta - 1) // 3
        modes = range(1, self.K + 1)
        # omega needs the boundary-node rows of Delta_n that the mass zeroes;
        # one product of the planes with S_n = [Delta_n; d1 Delta_n], held
        # transposed and C-ordered, gives omega and d omega/dr
        lap = np.array([laplacian_n(grid, n) for n in modes])
        self._St = np.concatenate([lap, grid.d1 @ lap], axis=1).transpose(0, 2, 1).copy()
        pencils = [mode_pencil(grid, params, self.mu, n) for n in modes]
        A = np.array([p.matrix for p in pencils])
        B = np.array([p.mass for p in pencils])
        lhs = B - 0.5 * self.dt * A
        # unit-scale boundary rows: scaled by dt/2, the LU meets them 1,000x worse
        bcs = navier_slip_bcs(grid, params, self.mu)
        lhs[:, BC_ROWS] = bcs
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
        # transposed, the propagators act on the (2, N+1) planes of each mode
        self._Wt = inv[:, :, BC_ROWS].transpose(0, 2, 1)
        inv[:, :, BC_ROWS] = 0.0
        inv *= self.dt
        # sol is now [P | Q]; [P^T; Q^T] acts on [X | F] in one product, and
        # the linear step reads its P^T half
        self._PQt = sol.transpose(0, 2, 1).copy()
        self._A_bct = bcs.T
        self._factor = velocity_factor(grid, np.arange(1, self.K + 1)[:, None])
        # synthesis (ntheta, 2K) and analysis (2K, ntheta) tables; the
        # analysis table is copied C-ordered, as BLAS's sums depend on it
        self._synth = synthesis_table(self.K, ntheta)
        self._analysis = (self._synth.T / (2 * ntheta)).copy()
        # the cell sizes of cfl_limit; radially, the distance to the nearer node
        dr = np.abs(np.diff(grid.nodes))
        self._cells = np.stack([np.minimum(np.append(dr, dr[-1]), np.append(dr[0], dr)),
                                grid.nodes * 2.0 * np.pi / ntheta])

    # ------------------------------------------------------------- state

    def zero_state(self) -> SimState:
        return SimState(0.0, np.zeros((self.K, 2, self.grid.N + 1)))

    def init_from_mode(self, eig: EigenResult, delta: float) -> SimState:
        """delta * Psi_1 (finite delta >= 0) in the n = 1 row, all other modes zero."""
        if not (delta >= 0 and np.isfinite(delta)):
            raise ValueError(f"amplitude must be nonnegative and finite, got {delta}")
        if len(eig.psi1) != self.grid.N + 1:
            raise GridMismatch("eigenfunction sampled on a different grid")
        planes = np.zeros((self.K, 2, self.grid.N + 1))
        planes[0, 0] = eig.psi1
        return SimState(0.0, delta * planes)

    def _check(self, state: SimState, batch: bool = False) -> None:
        """GridMismatch unless the state's planes are (K, 2, N+1), with
        leading batch axes only where ``batch`` allows them."""
        shape, got = (self.K, 2, self.grid.N + 1), state.planes.shape
        if got[-3:] != shape:
            raise GridMismatch(f"state planes {got} do not match the simulator's {shape}")
        if len(got) > 3 and not batch:
            raise GridMismatch(f"this reads one state, not a batch of {got[:-3]}")

    # ----------------------------------------------------------- physics

    def cfl_limit(self, v: np.ndarray) -> float:
        """Largest admissible dt for the (2, ..., ntheta, N+1) lattice
        velocity (v_r, v_theta): 0.5 / max crossing rate, where each
        component is measured against the cell size it crosses (radial
        spacing for v_r, local arc length for v_theta). Over a batch (the
        middle axes) it is the smallest of the members' limits. |v| is
        reduced over the batch and theta first: dividing by a positive
        size keeps the order of rounded values, so the maximum is the full
        lattice's, bit for bit. Infinite for a zero velocity."""
        rate = (np.abs(v).reshape(2, -1, v.shape[-1]).max(axis=1) / self._cells).max()
        return float(0.5 / rate) if rate > 0 else float("inf")

    def _velocity(self, X: np.ndarray) -> np.ndarray:
        """The step's field planes of X, field axis first so that out=
        writes into each: v_r and v_theta by :func:`modal_velocity`, then,
        if nonlinear, room for d omega/dr and -(1/r) d omega/dtheta."""
        fields = np.empty((4 if self.nonlinear else 2, *X.shape))
        modal_velocity(X, self.grid, self._factor, out=fields[:2])
        return fields

    def _kinetic(self, fields: np.ndarray) -> float | np.ndarray:
        """:meth:`kinetic_energy` from the :meth:`_velocity` planes."""
        e = _sum_modes(4.0 * np.pi * mode_kinetic_energy(fields[:2], self.grid))
        return e if e.ndim else float(e)

    def step(self, state: SimState, *, _fields: np.ndarray | None = None) -> SimState:
        """Advance one dt, a batch of states in one pass: each member
        comes out bit for bit as its own step would give it. Raises
        CFLViolation when dt exceeds the per-cell advective limit of any
        member (see :meth:`cfl_limit`) and SolverFailure when a new state
        is not finite (a blown-up run). ``_fields`` (private) is
        :meth:`_velocity` of the planes if the escape run has formed it."""
        self._check(state, batch=True)
        X, n1, K = state.planes, self.grid.N + 1, self.K
        fields = self._velocity(X) if _fields is None else _fields
        # the radial product X S_n^T, whose sums the advection's 1e-13
        # reference bound was set on
        if self.nonlinear:
            omega = X @ self._St
            fields[2] = omega[..., n1:]
            np.multiply(omega[..., ::-1, :n1], self._factor, out=fields[3])
        # synthesized on the lattice, one (ntheta, N+1) array per field and member
        f = self._synth @ fields.reshape(*fields.shape[:-3], 2 * K, n1)
        limit = self.cfl_limit(f[:2])
        if self.dt > limit:
            raise CFLViolation(
                f"dt={self.dt} exceeds advective CFL limit {limit:.3e}")
        if self.nonlinear:
            # -v . grad omega = v_theta f[3] - v_r d omega/dr
            nl = (self._analysis @ (f[1] * f[3] - f[0] * f[2])).reshape(X.shape)
            prev = state.prev_planes
            force = nl if prev is None else 1.5 * nl - 0.5 * prev
            # P and Q act in one product of [X | F]
            new = np.concatenate([X, force], axis=-1) @ self._PQt
        else:
            nl = None
            new = X @ self._PQt[:, :n1]
        # re-impose the boundary rows, which the products meet only to ~1e-9
        new -= (new @ self._A_bct) @ self._Wt
        if not np.isfinite(new).all():
            raise SolverFailure(f"non-finite state at t={state.t + self.dt:.6g}")
        return SimState(state.t + self.dt, new, nl)

    # -------------------------------------------------------- diagnostics

    def diagnostics(self, state: SimState) -> Diagnostics:
        """The one reading of one state: its energies, each mode's E3, and
        max |psi| on the ntheta lattice by the step's table."""
        self._check(state)
        per_mode = 4.0 * np.pi * np.array(
            mode_energies(self.params, state.planes, self.grid, self._factor))
        E3, E1, E2 = _sum_modes(per_mode).tolist()
        max_psi = np.abs(self._synth @ state.planes.reshape(2 * self.K, -1)).max()
        return Diagnostics(t=state.t, E3=E3, E1=E1, E2=E2, max_psi=float(max_psi),
                           mode_energies=tuple(per_mode[0].tolist()))

    def energies(self, state: SimState) -> tuple[float, float, float]:
        """(E3, E1, E2) of :meth:`diagnostics`, for the pairs-convention
        field sum_n (c_n e^{in t} + c.c.)."""
        d = self.diagnostics(state)
        return d.E3, d.E1, d.E2

    def kinetic_energy(self, state: SimState) -> float | np.ndarray:
        """E3 of :meth:`diagnostics` alone, ||v||^2, bit for bit, without E1
        and E2; for a batch, an array of the members' values, each equal
        bit for bit to that member's own."""
        self._check(state, batch=True)
        return self._kinetic(self._velocity(state.planes))

    def energy_residual(self, before: SimState, after: SimState) -> float:
        """Defect of the balance of :class:`Diagnostics` across one step
        relative to the size of its right side's terms, mu E1 +
        |alpha - mu/a| E2, which does not cancel on a plateau as their sum
        does; E1 and E2 are averaged over the two endpoint states."""
        if after.t - before.t <= 0:
            raise GridMismatch("states are not consecutive")
        return self._balance_defect(self.diagnostics(before), self.diagnostics(after))

    def _balance_defect(self, d0: Diagnostics, d1: Diagnostics) -> float:
        """:meth:`energy_residual` from the diagnostics of both states."""
        E1, E2, p = 0.5 * (d0.E1 + d1.E1), 0.5 * (d0.E2 + d1.E2), self.params
        size = self.mu * E1 + abs(p.alpha - self.mu / p.a) * E2
        defect = 0.5 * (d1.E3 - d0.E3) / (d1.t - d0.t) - energy_growth(p, self.mu, E1, E2)
        return abs(defect) / (size + 1e-300)

    def run(self, state: SimState, nsteps: int,
            sample_every: int = 1) -> tuple[SimState, list[Diagnostics]]:
        """Advance nsteps, sampling diagnostics every sample_every steps
        and after the last (the initial state is always sampled). Each
        later sample with ||v|| > GROWTH_FLOOR carries the energy residual
        of the step that ended there; below it the state is rounding."""
        if nsteps < 0 or sample_every < 1:
            raise ValueError(f"need nsteps >= 0 and sample_every >= 1, got "
                             f"{nsteps} and {sample_every}")
        diags = [self.diagnostics(state)]
        for k in range(1, nsteps + 1):
            prev, state = state, self.step(state)
            if k % sample_every == 0 or k == nsteps:
                d = self.diagnostics(state)
                if d.vnorm > GROWTH_FLOOR:
                    d = replace(d, energy_residual=self._balance_defect(
                        self.diagnostics(prev), d))
                diags.append(d)
        return state, diags


def fit_growth_rate(diags: list[Diagnostics]) -> float | None:
    """Least-squares slope of ln ||v|| over the samples with ||v|| >
    GROWTH_FLOOR (below it, startup noise) whose energy outside the most
    energetic mode is at most DOMINANCE of that mode's. The advection feeds
    other modes at O(|s|^2) of the mode's amplitude s (the slaved G11 of
    the reduction), and moves the slope by about twice that energy ratio; a
    linear run keeps them at exactly 0. None below two samples.
    """
    t = np.array([d.t for d in diags])
    v = np.array([d.vnorm for d in diags])
    E = np.sort([d.mode_energies for d in diags], axis=1)
    keep = (v > GROWTH_FLOOR) & (E[:, :-1].sum(axis=1) <= DOMINANCE * E[:, -1])
    if keep.sum() < 2:
        return None
    return float(np.polyfit(t[keep], np.log(v[keep]), 1)[0])


def escape_experiment(sim: Simulator, eig: EigenResult, delta_list: list[float],
                      *, eps_thr: float) -> list[tuple[float, float]]:
    """Escape times: for each delta, the first t with ||v(t)|| >= eps_thr,
    in the order of delta_list.

    All deltas step as one batch; the threshold is tested on the batch
    before each step, and a member leaves it once it crosses, so each
    time equals that of the delta's own run. Raises ValueError unless
    every delta is positive (the zero state never grows) and eps_thr > 0
    has a positive, finite square, and NoEscape without growth
    (lambda_1 <= 0 at the simulator's mu) or when a delta does not reach
    the threshold within ESCAPE_MAX_STEPS (the first such delta in list
    order is named). A CFL violation or a blow-up in any member stops the
    batch. The slope of T vs ln(1/delta) estimates 1/lambda_1.
    """
    thr2 = eps_thr * eps_thr
    if not (eps_thr > 0 and 0 < thr2 < np.inf and all(d > 0 for d in delta_list)):
        raise ValueError(f"need 0 < eps_thr, 0 < eps_thr**2 < inf and deltas > 0, "
                         f"got {eps_thr}, {delta_list}")
    if eig.lambda1 <= 0:
        raise NoEscape(f"no instability at mu={sim.mu}: lambda1={eig.lambda1}")
    deltas = list(delta_list)
    if not deltas:
        return []
    times = [None] * len(deltas)
    # live[i] is the position in deltas of the batch's member i
    live = np.arange(len(deltas))
    state = SimState(0.0, np.array([sim.init_from_mode(eig, d).planes for d in deltas]))
    for steps in range(ESCAPE_MAX_STEPS + 1):
        # the threshold reads the velocity planes that the step then uses
        fields = sim._velocity(state.planes)
        crossed = ~(sim._kinetic(fields) < thr2)
        for i in live[crossed].tolist():
            times[i] = state.t
        live = live[~crossed]
        if not live.size:
            return list(zip(deltas, times))
        if steps == ESCAPE_MAX_STEPS:
            raise NoEscape(f"threshold {eps_thr} not reached from delta={deltas[live[0]]} "
                           f"within {ESCAPE_MAX_STEPS} steps (t={state.t:.1f})")
        if crossed.any():
            prev = state.prev_planes
            state = SimState(state.t, state.planes[~crossed],
                             None if prev is None else prev[~crossed])
            fields = fields[:, ~crossed]
        state = sim.step(state, _fields=fields)


def escape_slope(table: list[tuple[float, float]]) -> float | None:
    """Slope of T_delta against ln(1/delta); compare to 1/lambda_1. None
    unless ln(1/delta) takes at least two values."""
    x = np.log(1.0 / np.array([d for d, _ in table]))
    if len(set(x.tolist())) < 2:
        return None
    return float(np.polyfit(x, [t for _, t in table], 1)[0])
