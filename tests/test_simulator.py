import numpy as np
import pytest

import annuflow as af
import annuflow.simulator
from annuflow.bifurcation import lattice_velocity


@pytest.fixture(scope="module")
def grid():
    return af.build_grid(1.0, 3.0, 32)


@pytest.fixture(scope="module")
def stable():
    """Decaying configuration: mu = 2 mu_c."""
    p0 = af.validate(1, 3, 5, 1)
    mu = 2.0 * af.mu_c_closed(p0)
    pr = af.validate(1, 3, 5, mu)
    g = af.build_grid(1, 3, 32)
    eig = af.leading_eigenpair(pr, mu, g)
    return pr, mu, g, eig


@pytest.fixture(scope="module")
def unstable():
    """Growing configuration: mu = 1.2 < mu_c."""
    pr = af.validate(1, 3, 5, 1.2)
    g = af.build_grid(1, 3, 32)
    eig = af.leading_eigenpair(pr, 1.2, g)
    return pr, 1.2, g, eig


class TestRun:
    @pytest.mark.parametrize("sample_every", [0, -1])
    def test_sample_every_below_one_rejected(self, stable, sample_every):
        pr, mu, g, eig = stable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        sim.step = lambda state: pytest.fail("stepped before validating")
        with pytest.raises(ValueError, match="sample_every"):
            sim.run(sim.init_from_mode(eig, 1e-3), 5, sample_every=sample_every)

    def test_negative_nsteps_rejected(self, stable):
        pr, mu, g, eig = stable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        with pytest.raises(ValueError, match="nsteps"):
            sim.run(sim.init_from_mode(eig, 1e-3), -5)


class TestConstruction:
    def test_bad_ntheta(self, stable):
        pr, mu, g, _ = stable
        with pytest.raises(af.GridMismatch):
            af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=7)

    def test_bad_dt(self, stable):
        pr, mu, g, _ = stable
        with pytest.raises(ValueError):
            af.Simulator(pr, g, mu=mu, dt=-0.01, ntheta=8)

    def test_truncation(self, stable):
        pr, mu, g, _ = stable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=32)
        assert sim.M == 16 and sim.K == 10


class TestZeroState:
    def test_fixed_point_1000_steps(self, stable):
        pr, mu, g, _ = stable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        st = sim.zero_state()
        for _ in range(1000):
            st = sim.step(st)
        assert all(np.abs(c).max() == 0.0 for c in st.psi)

    def test_zero_amplitude_init(self, stable):
        pr, mu, g, eig = stable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        st = sim.init_from_mode(eig, 0.0)
        st = sim.step(st)
        assert sim.energies(st)[0] == 0.0


class TestLinearRates:
    def test_decay_matches_eigenvalue(self, stable):
        pr, mu, g, eig = stable
        sim = af.Simulator(pr, g, mu=mu, dt=0.002, ntheta=8, nonlinear=False)
        st = sim.init_from_mode(eig, 1e-4)
        _, diags = sim.run(st, 120, sample_every=10)
        rate = af.fit_growth_rate(diags)
        assert rate == pytest.approx(eig.lambda1, rel=1e-3)

    def test_growth_matches_eigenvalue(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.002, ntheta=8, nonlinear=False)
        st = sim.init_from_mode(eig, 1e-6)
        _, diags = sim.run(st, 300, sample_every=10)
        rate = af.fit_growth_rate(diags)
        assert rate == pytest.approx(eig.lambda1, rel=1e-3)

    def test_mode2_rate(self, stable):
        # with nonlinearity off every mode evolves under its own operator
        pr, mu, g, _ = stable
        pencil = af.mode_pencil(g, pr, mu, 2)
        lams = af.generalized_eig(pencil, 1e6 * mu / 4.0)
        lam2, vec2 = lams[0], af.eigenvector(pencil, lams[0].real)
        sim = af.Simulator(pr, g, mu=mu, dt=0.001, ntheta=8, nonlinear=False)
        st = sim.zero_state()
        st.psi[1] = 1e-4 * vec2 / np.abs(vec2).max()
        _, diags = sim.run(st, 100, sample_every=10)
        rate = af.fit_growth_rate(diags)
        assert rate == pytest.approx(lam2.real, rel=1e-3)

    def test_decay_bound_pointwise(self, stable):
        # ||v(t)|| <= ||v0|| e^{lambda1 t} for the nonlinear system
        pr, mu, g, eig = stable
        sim = af.Simulator(pr, g, mu=mu, dt=0.005, ntheta=8)
        st = sim.init_from_mode(eig, 1e-3)
        v0 = np.sqrt(sim.energies(st)[0])
        for _ in range(10):
            st, diags = sim.run(st, 20, sample_every=20)
            bound = v0 * np.exp(eig.lambda1 * st.t)
            assert np.sqrt(sim.energies(st)[0]) <= bound * (1 + 1e-6)


class TestEnergyBalance:
    def test_zero_state_residual(self, stable):
        pr, mu, g, _ = stable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        s0 = sim.zero_state()
        s1 = sim.step(s0)
        assert sim.energy_residual(s0, s1) == 0.0

    def test_second_order_convergence(self, stable):
        pr, mu, g, eig = stable
        res = []
        for dt in (0.008, 0.004, 0.002):
            sim = af.Simulator(pr, g, mu=mu, dt=dt, ntheta=8, nonlinear=False)
            s = sim.init_from_mode(eig, 1e-3)
            worst = 0.0
            for _ in range(10):
                s2 = sim.step(s)
                worst = max(worst, sim.energy_residual(s, s2))
                s = s2
            res.append(worst)
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.3)
        assert res[1] / res[2] == pytest.approx(4.0, rel=0.3)

    def test_residual_evaluates_each_state_once(self, unstable, monkeypatch):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        s0 = sim.init_from_mode(eig, 1e-3)
        s1 = sim.step(s0)
        calls = []
        orig = af.simulator.mode_energies

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(af.simulator, "mode_energies", counted)
        sim.energy_residual(s0, s1)
        assert len(calls) == 2

    def test_run_samples_carry_the_step_residual(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        s0 = sim.init_from_mode(eig, 1e-3)
        _, diags = sim.run(s0, 7, sample_every=3)
        assert [d.t for d in diags] == pytest.approx([0.0, 0.03, 0.06, 0.07])
        assert diags[0].energy_residual is None
        states = [s0]
        for _ in range(7):
            states.append(sim.step(states[-1]))
        for d, k in zip(diags[1:], (3, 6, 7)):
            assert d.energy_residual == sim.energy_residual(states[k - 1], states[k])

    def test_energies_nonnegative(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        st = sim.init_from_mode(eig, 1e-3)
        st, _ = sim.run(st, 50, sample_every=50)
        E3, E1, E2 = sim.energies(st)
        assert E3 > 0 and E1 > 0 and E2 > 0

    @pytest.mark.parametrize("ntheta", [8, 32])
    def test_kinetic_energy_is_E3(self, unstable, ntheta, monkeypatch):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=ntheta)
        rng = np.random.default_rng(ntheta)
        psi = np.array([(rng.standard_normal() + 1j * rng.standard_normal())
                        * np.sin(n * g.nodes) * eig.psi1 for n in range(1, sim.M + 1)])
        st = af.SimState(0.0, psi)
        E3 = sim.energies(st)[0]
        monkeypatch.setattr(af.simulator, "mode_energies",
                            lambda *a, **k: pytest.fail("E1 and E2 formed"))
        assert sim.kinetic_energy(st) == pytest.approx(E3, rel=1e-15, abs=0)


class TestStructure:
    def test_cfl_violation_raised(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=50.0, ntheta=8)
        st = sim.init_from_mode(eig, 1.0)
        with pytest.raises(af.CFLViolation):
            sim.step(st)

    @pytest.mark.parametrize("ntheta,modes", [(8, 4), (32, 1)])
    def test_cfl_check_reads_lattice_velocity(self, unstable, ntheta, modes):
        # the step's limit is lattice_velocity's on the ntheta lattice, to
        # the 4 digits its message prints; v_r sets it with modes 1..4 on
        # ntheta = 8 (up to the Nyquist mode), v_theta with mode 1 on 32
        pr, mu, g, eig = unstable
        rng = np.random.default_rng(ntheta)
        psi = np.zeros((ntheta // 2, g.N + 1), complex)
        psi[:modes] = [(rng.standard_normal() + 1j * rng.standard_normal())
                       * np.sin(n * g.nodes) * eig.psi1 for n in range(1, modes + 1)]
        state = af.SimState(0.0, psi)
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=ntheta)
        lim = sim.cfl_limit(*lattice_velocity(psi, g, ntheta))
        with pytest.raises(af.CFLViolation) as exc:
            af.Simulator(pr, g, mu=mu, dt=1.001 * lim, ntheta=ntheta).step(state)
        printed = float(str(exc.value).rsplit(" ", 1)[1])
        assert abs(printed - lim) <= 1e-3 * lim
        af.Simulator(pr, g, mu=mu, dt=0.999 * lim, ntheta=ntheta).step(state)

    def test_non_finite_state_raises_solver_failure(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        st = sim.init_from_mode(eig, 1e-2)
        st.psi[0] = np.nan
        with pytest.raises(af.SolverFailure):
            sim.step(st)

    def test_rotational_equivariance_100_steps(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=16)
        theta0 = 0.7
        a_state = sim.init_from_mode(eig, 1e-2)
        b_state = a_state.rotated(theta0)
        for _ in range(100):
            a_state = sim.step(a_state)
            b_state = sim.step(b_state)
        rotated_after = a_state.rotated(theta0)
        for n in range(len(a_state.psi)):
            scale = max(np.abs(rotated_after.psi[n]).max(), 1e-30)
            diff = np.abs(rotated_after.psi[n] - b_state.psi[n]).max()
            assert diff < 1e-8 * max(scale, 1.0)

    def test_field_is_real(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=16)
        st = sim.init_from_mode(eig, 1e-2)
        st, _ = sim.run(st, 20, sample_every=20)
        # the synthesized lattice field is real by construction
        phys = af.synthesize_physical(st.psi, 16)
        assert np.isrealobj(phys.values)

    def test_velocity_lattice_matches_literal_sum(self, unstable, lattice_reference):
        # ntheta = 8 puts the top mode M = 4 on the Nyquist bin; advection
        # forces only n <= K = 2, so mode 4 is filled by hand
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        st = sim.init_from_mode(eig, 1e-2)
        st, _ = sim.run(st, 20, sample_every=20)
        st.psi[3] = st.psi[3] + 1e-3 * eig.psi1
        vr, vt = lattice_velocity(st.psi, g, 8)
        n = np.arange(1, 5)[:, None]
        c = st.psi
        ref_r = lattice_reference(-1j * n * c / g.nodes, 8)
        ref_t = lattice_reference(np.array([g.d1 @ ck for ck in c]), 8)
        assert np.abs(vr - ref_r).max() <= 1e-13 * np.abs(ref_r).max()
        assert np.abs(vt - ref_t).max() <= 1e-13 * np.abs(ref_t).max()

    @pytest.mark.parametrize("ntheta", [4, 6, 8, 32])
    def test_advection_matches_mode_pair_loop(self, unstable, advection_reference,
                                              ntheta):
        # every mode up to n = M (the Nyquist mode of the ntheta lattice)
        # is populated, so any aliasing onto n <= K would show (advection
        # on L = ntheta reads 0.90 to 1.06). The reference sums in long
        # double: in float64 it is itself up to 7.3e-14 off, which leaves
        # the 1e-13 bound no margin for a different float64 order of sums
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=1e-6, ntheta=ntheta)
        rng = np.random.default_rng(ntheta)
        r = g.nodes
        psi = np.array([(rng.standard_normal() + 1j * rng.standard_normal())
                        * np.sin(n * r + rng.uniform(0, np.pi)) * eig.psi1
                        for n in range(1, sim.M + 1)])
        nl = sim.step(af.SimState(0.0, psi)).prev_nonlinear
        ref = advection_reference(psi, g, sim.K, np.clongdouble)
        K = sim.K
        assert np.abs(nl[:K] - ref[:K]).max() <= 1e-13 * np.abs(ref).max()
        assert np.all(nl[K:] == 0.0)

    @pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "linear"])
    @pytest.mark.parametrize("ntheta", [4, 8, 32])
    def test_step_matches_per_mode_solve(self, unstable, implicit_reference,
                                         ntheta, nonlinear):
        # the Euler startup step and the AB2 step after it, from a state
        # with every mode populated
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=ntheta, nonlinear=nonlinear)
        rng = np.random.default_rng(ntheta)
        psi = np.array([0.02 * (rng.standard_normal() + 1j * rng.standard_normal())
                        * np.sin(n * g.nodes + rng.uniform(0, np.pi)) * eig.psi1
                        for n in range(1, sim.M + 1)])
        s0 = af.SimState(0.0, psi)
        s1 = sim.step(s0)
        s2 = sim.step(s1)
        forces = ([s1.prev_nonlinear, 1.5 * s2.prev_nonlinear - 0.5 * s1.prev_nonlinear]
                  if nonlinear else [np.zeros_like(psi)] * 2)
        for before, after, force in zip((s0, s1), (s1, s2), forces):
            ref = implicit_reference(sim, before.psi, force)
            assert np.abs(after.psi - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_singular_implicit_matrix_fails_at_construction(self, unstable, monkeypatch):
        # a zero pencil makes every implicit matrix zero
        pr, mu, g, _ = unstable
        zero = np.zeros((g.N + 1, g.N + 1))
        monkeypatch.setattr(af.simulator, "mode_pencil",
                            lambda grid, params, mu, n: af.ModePencil(zero, zero))
        with pytest.raises(af.SolverFailure):
            af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)

    def test_lu_solve_is_one_batched_solve(self):
        rhs = np.arange(24.0).reshape(2, 3, 4)
        lhs = np.stack([np.eye(3), 2.0 * np.eye(3)])
        assert np.array_equal(af.simulator.lu_solve(lhs, rhs),
                              rhs / np.array([1.0, 2.0])[:, None, None])
        with pytest.raises(af.SolverFailure):
            af.simulator.lu_solve(np.zeros((2, 3, 3)), rhs)

    def test_boundary_rows_after_step(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        st = sim.init_from_mode(eig, 1e-2)
        st, _ = sim.run(st, 10, sample_every=10)
        rows = af.navier_slip_bcs(g, pr, mu=mu)
        for c in st.psi:
            scale = max(np.abs(c).max(), 1e-30)
            assert np.abs(rows @ c).max() < 1e-8 * max(scale, 1.0)


    def test_boundary_rows_at_unit_scale(self):
        # criterion 7's setup; implicit matrices whose boundary rows are
        # scaled by dt/2 meet them only to ~1e-8 of max|psi| (~1e-11 here)
        mu = 0.99 * af.mu_c_closed(af.validate(1, 3, 5, 1))
        pr = af.validate(1, 3, 5, mu)
        g = af.build_grid(1, 3, 48)
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        st = sim.init_from_mode(af.leading_eigenpair(pr, mu, g), 0.2)
        rows = af.navier_slip_bcs(g, pr, mu)
        for _ in range(300):
            st = sim.step(st)
            assert np.abs(st.psi @ rows.T).max() <= 1e-10 * np.abs(st.psi).max()


class TestEscape:
    def test_immediate_escape(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        table = af.escape_experiment(sim, eig, [1.0], eps_thr=1e-3)
        assert table == [(1.0, 0.0)]

    def test_threshold_reads_E3_alone(self, unstable, monkeypatch):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        st = sim.init_from_mode(eig, 1e-4)
        while np.sqrt(sim.energies(st)[0]) < 1e-3:
            st = sim.step(st)
        assert st.t > 0
        monkeypatch.setattr(af.simulator, "mode_energies",
                            lambda *a, **k: pytest.fail("E1 and E2 formed"))
        assert af.escape_experiment(sim, eig, [1e-4], eps_thr=1e-3) == [(1e-4, st.t)]

    def test_halving_delta_shifts_time(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.005, ntheta=8)
        table = af.escape_experiment(sim, eig, [2e-5, 1e-5], eps_thr=1e-2)
        dT = table[1][1] - table[0][1]
        assert dT == pytest.approx(np.log(2) / eig.lambda1, rel=0.05)

    def test_no_escape_raises(self, stable):
        pr, mu, g, eig = stable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        with pytest.raises(af.NoEscape):
            af.escape_experiment(sim, eig, [1e-6], eps_thr=1.0)

    def test_step_cap_raises(self, unstable, monkeypatch):
        pr, mu, g, eig = unstable
        monkeypatch.setattr(annuflow.simulator, "ESCAPE_MAX_STEPS", 3)
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        with pytest.raises(af.NoEscape, match="within 3 steps"):
            af.escape_experiment(sim, eig, [1e-6], eps_thr=1e-2)

    @pytest.mark.parametrize("eps_thr,deltas", [
        (-1.0, [1e-3]), (0.0, [1e-3]), (1e-2, [1e-3, 0.0]), (1e-2, [-1e-3])],
        ids=["eps-negative", "eps-zero", "delta-zero", "delta-negative"])
    def test_nonpositive_inputs_rejected(self, unstable, eps_thr, deltas):
        # the zero state never grows: delta = 0 would step to max_steps
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        sim.step = lambda state: pytest.fail("stepped before validating")
        with pytest.raises(ValueError):
            af.escape_experiment(sim, eig, deltas, eps_thr=eps_thr)

    def test_phase_invariant_escape_time(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.005, ntheta=8)
        t_base = af.escape_experiment(sim, eig, [1e-4], eps_thr=1e-2)[0][1]
        st = sim.init_from_mode(eig, 1e-4).rotated(1.1)
        t_rot = None
        while t_rot is None:
            st = sim.step(st)
            if np.sqrt(sim.energies(st)[0]) > 1e-2:
                t_rot = st.t
        assert abs(t_rot - t_base) < 1e-6
