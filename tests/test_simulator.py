import numpy as np
import pytest

import annuflow as af
import annuflow.simulator
from conftest import as_planes, lattice_velocity, rows


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
        # K modes are de-aliased on ntheta angles when 3K + 1 <= ntheta
        pr, mu, g, _ = stable
        for ntheta in range(4, 130, 2):
            sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=ntheta)
            assert sim.K == (ntheta - 1) // 3 and 3 * sim.K + 1 <= ntheta
            assert sim.zero_state().planes.shape == (sim.K, 2, g.N + 1)
        assert af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=32).K == 10

    def test_state_shape_checked(self, unstable):
        # a state of another grid or another mode count raises GridMismatch
        # (exit code 2) from every method that reads one
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, af.build_grid(1, 3, 25), mu=mu, dt=0.01, ntheta=8)
        other_grid = af.Simulator(pr, af.build_grid(1, 3, 20), mu=mu, dt=0.01, ntheta=8)
        other_modes = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=16)
        for other in (other_grid, other_modes):
            st = other.zero_state()
            for read in (sim.step, sim.energies, sim.kinetic_energy, sim.diagnostics):
                with pytest.raises(af.GridMismatch) as exc:
                    read(st)
                assert exc.value.exit_code == 2


class TestZeroState:
    def test_fixed_point_1000_steps(self, stable):
        pr, mu, g, _ = stable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        st = sim.zero_state()
        for _ in range(1000):
            st = sim.step(st)
        assert all(np.abs(c).max() == 0.0 for c in rows(st.planes))

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
        psi = rows(sim.zero_state().planes)
        psi[1] = 1e-4 * vec2 / np.abs(vec2).max()
        st = af.SimState(0.0, as_planes(psi))
        _, diags = sim.run(st, 100, sample_every=10)
        rate = af.fit_growth_rate(diags)
        assert rate == pytest.approx(lam2.real, rel=1e-3)

    @pytest.mark.parametrize("setup,delta,dt,steps", [
        ("stable", 1e-3, 0.01, 1000), ("stable", 1e-4, 0.002, 120),
        ("unstable", 1e-6, 0.002, 300), ("unstable", 1e-3, 0.005, 1000)])
    def test_linear_window_is_the_floor(self, request, setup, delta, dt, steps):
        # every other mode stays exactly 0, so the fit is the floor-only
        # fit bit for bit; the first run decays far below the floor
        pr, mu, g, eig = request.getfixturevalue(setup)
        sim = af.Simulator(pr, g, mu=mu, dt=dt, ntheta=32, nonlinear=False)
        _, diags = sim.run(sim.init_from_mode(eig, delta), steps, sample_every=10)
        t = np.array([d.t for d in diags])
        v = np.array([d.vnorm for d in diags])
        keep = v > af.simulator.GROWTH_FLOOR
        assert af.fit_growth_rate(diags) == np.polyfit(t[keep], np.log(v[keep]), 1)[0]

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


class TestGrowthFit:
    @pytest.fixture(scope="class")
    def readme_run(self):
        """The README simulate settings, cut at t = 0.8: the window, two
        samples, is the full run's."""
        pr = af.validate(1, 3, 5, 1.2)
        g = af.build_grid(1, 3, 48)
        eig = af.leading_eigenpair(pr, 1.2, g)
        sim = af.Simulator(pr, g, mu=1.2, dt=0.002, ntheta=32)
        return eig, sim.run(sim.init_from_mode(eig, 0.05), 400, sample_every=10)[1]

    def test_nonlinear_rate_is_lambda1(self, readme_run):
        eig, diags = readme_run
        assert af.fit_growth_rate(diags) == pytest.approx(eig.lambda1, rel=1e-5)

    def test_fit_above_the_floor_alone_misses(self, readme_run):
        # negative control: the advection moves the slope of the later samples
        eig, diags = readme_run
        t = np.array([d.t for d in diags])
        v = np.array([d.vnorm for d in diags])
        keep = v > af.simulator.GROWTH_FLOOR
        rate = np.polyfit(t[keep], np.log(v[keep]), 1)[0]
        assert rate != pytest.approx(eig.lambda1, rel=1e-5)

    def test_window_follows_the_most_energetic_mode(self):
        def diags(*energies):
            return [af.Diagnostics(t=0.1 * k, E3=max(e), E1=1.0, E2=1.0, max_psi=1.0,
                                   mode_energies=e) for k, e in enumerate(energies)]

        # the leading mode is mode 2, and the last sample leaves the window
        growing = diags((0.0, 1.0), (1e-7, np.e ** 2), (1e-7, np.e ** 4), (1.0, 1e5))
        assert af.fit_growth_rate(growing) == pytest.approx(10.0, rel=1e-12)
        # two modes of equal energy: no sample is in the window, so no rate
        assert af.fit_growth_rate(diags((1.0, 1.0), (2.0, 2.0), (4.0, 4.0))) is None


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

    def test_energies_hand_mode_energies_the_planes(self, unstable, monkeypatch):
        # energies, diagnostics and energy_residual pass each state's real
        # planes themselves to the energy functionals, no complex rows
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        s0 = sim.init_from_mode(eig, 1e-3)
        s1 = sim.step(s0)
        seen = []
        orig = af.simulator.mode_energies

        def recorded(params, modes, *args, **kwargs):
            seen.append(modes)
            return orig(params, modes, *args, **kwargs)

        monkeypatch.setattr(af.simulator, "mode_energies", recorded)
        sim.energies(s0)
        sim.diagnostics(s1)
        sim.energy_residual(s0, s1)
        assert [m is st.planes for m, st in zip(seen, (s0, s1, s0, s1))] == [True] * 4
        assert all(m.dtype == np.float64 and m.shape == (sim.K, 2, g.N + 1) for m in seen)

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

    @pytest.mark.parametrize("ntheta", [8, 32, 64])
    def test_kinetic_energy_is_E3(self, unstable, ntheta, monkeypatch):
        # one per-mode functional, its modes added in one order: equal bits
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=ntheta)
        rng = np.random.default_rng(ntheta)
        states = [af.SimState(0.0, as_planes(np.array([
            (rng.standard_normal() + 1j * rng.standard_normal()) * 10.0 ** rng.uniform(-3, 3)
            * np.sin(n * g.nodes) * eig.psi1 for n in range(1, sim.K + 1)])))
            for _ in range(20)]
        E3 = [sim.energies(st)[0] for st in states]
        monkeypatch.setattr(af.simulator, "mode_energies",
                            lambda *a, **k: pytest.fail("E1 and E2 formed"))
        assert [sim.kinetic_energy(st) for st in states] == E3


class TestStructure:
    def test_cfl_violation_raised(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=50.0, ntheta=8)
        st = sim.init_from_mode(eig, 1.0)
        with pytest.raises(af.CFLViolation):
            sim.step(st)

    def test_linear_step_has_no_cfl_limit(self, unstable, monkeypatch):
        # the dt at which test_cfl_violation_raised stops: a linear step
        # is the propagator alone, and forms no velocity to limit it
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=50.0, ntheta=8, nonlinear=False)
        for target, name in ((af.Simulator, "cfl_limit"),
                             (annuflow.simulator, "modal_velocity")):
            monkeypatch.setattr(target, name,
                                lambda *a, name=name, **k: pytest.fail(f"{name} called"))
        st = sim.step(sim.step(sim.init_from_mode(eig, 1.0)))
        assert st.t == 100.0 and st.prev_planes is None
        assert np.isfinite(st.planes).all()

    @pytest.mark.parametrize("ntheta,modes", [(8, 2), (32, 1)])
    def test_cfl_check_reads_lattice_velocity(self, unstable, ntheta, modes):
        # the step's limit is lattice_velocity's on the ntheta lattice, to
        # the 4 digits its message prints; v_r sets it with modes 1..K = 2
        # on ntheta = 8, v_theta with mode 1 on 32. cfl_limit takes the
        # step's (2, ntheta, N+1) layout
        pr, mu, g, eig = unstable
        rng = np.random.default_rng(ntheta)
        psi = np.zeros(((ntheta - 1) // 3, g.N + 1), complex)
        psi[:modes] = [(rng.standard_normal() + 1j * rng.standard_normal())
                       * np.sin(n * g.nodes) * eig.psi1 for n in range(1, modes + 1)]
        state = af.SimState(0.0, as_planes(psi))
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=ntheta)
        lim = sim.cfl_limit(np.swapaxes(lattice_velocity(state.planes, g, ntheta), 1, 2))
        with pytest.raises(af.CFLViolation) as exc:
            af.Simulator(pr, g, mu=mu, dt=1.001 * lim, ntheta=ntheta).step(state)
        printed = float(str(exc.value).rsplit(" ", 1)[1])
        assert abs(printed - lim) <= 1e-3 * lim
        af.Simulator(pr, g, mu=mu, dt=0.999 * lim, ntheta=ntheta).step(state)

    @pytest.mark.parametrize("ntheta", [8, 16, 32, 64])
    def test_cfl_limit_is_the_full_lattice_formula(self, unstable, ntheta):
        # the limit from each radius's largest |v| equals, bit for bit, the
        # literal formula over every lattice point: |v_r| against the
        # distance to the nearer radial neighbor, |v_theta| against the
        # local arc, on fields whose magnitudes span six decades so that
        # either component and any node can set it
        pr, mu, g, _ = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=ntheta)
        dr = np.abs(np.diff(g.nodes))
        cells = (np.minimum(np.append(dr, dr[-1]), np.append(dr[0], dr)),
                 g.nodes * 2.0 * np.pi / ntheta)
        rng = np.random.default_rng(ntheta)
        shape = (2, ntheta, g.N + 1)
        for _ in range(20):
            v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
            rate = max((np.abs(c.T) / cell[:, None]).max() for c, cell in zip(v, cells))
            assert sim.cfl_limit(v) == float(0.5 / rate)
        assert sim.cfl_limit(np.zeros(shape)) == float("inf")

    def test_non_finite_state_raises_solver_failure(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        psi = rows(sim.init_from_mode(eig, 1e-2).planes)
        psi[0] = np.nan
        st = af.SimState(0.0, as_planes(psi))
        with pytest.raises(af.SolverFailure):
            sim.step(st)

    def test_derived_state_is_read_only(self, unstable):
        # a write into a state's planes or its previous advection raises
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        st = sim.step(sim.init_from_mode(eig, 1e-2))
        with pytest.raises(ValueError):
            st.planes[0] = np.nan
        with pytest.raises(ValueError):
            st.prev_planes[0] = np.nan
        assert np.isfinite(st.planes).all() and np.isfinite(st.prev_planes).all()

    def test_state_takes_real_planes(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        psi = rows(sim.init_from_mode(eig, 1e-2).planes)
        X = as_planes(psi)
        for bad in ((psi,), (X, psi), (X, as_planes(np.vstack([psi, psi]))),
                    (X, X[:, :, 1:].copy()), (X[0],), (X, X[:1].copy())):
            with pytest.raises(af.GridMismatch):
                af.SimState(0.0, *bad)
        st = af.SimState(0.0, X, X.copy())
        assert not st.planes.flags.writeable and not st.prev_planes.flags.writeable

    @pytest.mark.parametrize("ntheta", [4, 6, 16, 64])
    def test_max_psi_reads_the_lattice_transform(self, unstable, ntheta):
        pr, mu, g, _ = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=ntheta)
        rng = np.random.default_rng(ntheta)
        for _ in range(10):
            shape = (sim.K, g.N + 1)
            st = af.SimState(0.0, as_planes(rng.standard_normal(shape)
                                            + 1j * rng.standard_normal(shape)))
            assert (sim.diagnostics(st).max_psi
                    == np.abs(af.synthesize_lattice(st.planes, ntheta)).max())

    @pytest.mark.parametrize("ntheta", [8, 32])
    def test_step_does_no_fft(self, unstable, ntheta, monkeypatch):
        # the Euler startup step and the AB2 step after it, on a state with
        # every mode populated
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=ntheta)
        rng = np.random.default_rng(ntheta)
        psi = np.array([0.02 * (rng.standard_normal() + 1j * rng.standard_normal())
                        * np.sin(n * g.nodes) * eig.psi1 for n in range(1, sim.K + 1)])
        for target, name in ((np.fft, "rfft"), (np.fft, "irfft"),
                             (af.domain, "synthesize_lattice")):
            monkeypatch.setattr(target, name, lambda *a, **k: pytest.fail("FFT in a step"))
        s2 = sim.step(sim.step(af.SimState(0.0, as_planes(psi))))
        assert s2.t == pytest.approx(0.02) and np.abs(s2.prev_planes).max() > 0

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
        a_rows, b_rows = rows(rotated_after.planes), rows(b_state.planes)
        for n in range(len(a_rows)):
            scale = max(np.abs(a_rows[n]).max(), 1e-30)
            diff = np.abs(a_rows[n] - b_rows[n]).max()
            assert diff < 1e-8 * max(scale, 1.0)

    def test_field_is_real(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=16)
        st = sim.init_from_mode(eig, 1e-2)
        st, _ = sim.run(st, 20, sample_every=20)
        # the synthesized lattice field is real by construction
        phys = af.synthesize_physical(st.planes, 16)
        assert np.isrealobj(phys.values)

    def test_velocity_lattice_matches_literal_sum(self, unstable, lattice_reference):
        # four rows on ntheta = 8 put the top mode 4 on the Nyquist bin
        pr, mu, g, eig = unstable
        rng = np.random.default_rng(8)
        c = np.array([(rng.standard_normal() + 1j * rng.standard_normal())
                      * np.sin(n * g.nodes) * eig.psi1 for n in range(1, 5)])
        vr, vt = lattice_velocity(as_planes(c), g, 8)
        n = np.arange(1, 5)[:, None]
        ref_r = lattice_reference(-1j * n * c / g.nodes, 8)
        ref_t = lattice_reference(np.array([g.d1 @ ck for ck in c]), 8)
        assert np.abs(vr - ref_r).max() <= 1e-13 * np.abs(ref_r).max()
        assert np.abs(vt - ref_t).max() <= 1e-13 * np.abs(ref_t).max()

    @pytest.mark.parametrize("ntheta", [8, 12, 16, 32])
    def test_advection_matches_mode_pair_loop(self, unstable, advection_reference,
                                              ntheta):
        # every mode 1..K is populated, so any aliasing of the product's
        # modes K+1..2K onto n <= K would show; 16 is a tight lattice,
        # 3K + 1 = ntheta, and 12 a multiple of 3. The reference sums in
        # long double: in float64 it is itself up to 7.3e-14 off, which
        # leaves the 1e-13 bound no margin for a different float64 order
        # of sums
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=1e-6, ntheta=ntheta)
        rng = np.random.default_rng(ntheta)
        r = g.nodes
        psi = np.array([(rng.standard_normal() + 1j * rng.standard_normal())
                        * np.sin(n * r + rng.uniform(0, np.pi)) * eig.psi1
                        for n in range(1, sim.K + 1)])
        nl = rows(sim.step(af.SimState(0.0, as_planes(psi))).prev_planes)
        ref = advection_reference(psi, g, sim.K, np.clongdouble)
        assert nl.shape == psi.shape
        assert np.abs(nl - ref).max() <= 1e-13 * np.abs(ref).max()

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
                        for n in range(1, sim.K + 1)])
        s0 = af.SimState(0.0, as_planes(psi))
        s1 = sim.step(s0)
        s2 = sim.step(s1)
        forces = ([rows(s1.prev_planes), rows(1.5 * s2.prev_planes - 0.5 * s1.prev_planes)]
                  if nonlinear else [np.zeros_like(psi)] * 2)
        for before, after, force in zip((s0, s1), (s1, s2), forces):
            ref = implicit_reference(sim, rows(before.planes), force)
            assert np.abs(rows(after.planes) - ref).max() <= 1e-10 * np.abs(ref).max()

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
        bc = af.navier_slip_bcs(g, pr, mu=mu)
        for c in rows(st.planes):
            scale = max(np.abs(c).max(), 1e-30)
            assert np.abs(bc @ c).max() < 1e-8 * max(scale, 1.0)


    def test_boundary_rows_at_unit_scale(self):
        # criterion 7's setup; implicit matrices whose boundary rows are
        # scaled by dt/2 meet them only to ~1e-8 of max|psi| (~1e-11 here)
        mu = 0.99 * af.mu_c_closed(af.validate(1, 3, 5, 1))
        pr = af.validate(1, 3, 5, mu)
        g = af.build_grid(1, 3, 48)
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        st = sim.init_from_mode(af.leading_eigenpair(pr, mu, g), 0.2)
        bc = af.navier_slip_bcs(g, pr, mu)
        for _ in range(300):
            st = sim.step(st)
            psi = rows(st.planes)
            assert np.abs(psi @ bc.T).max() <= 1e-10 * np.abs(psi).max()

    def test_one_boundary_block_for_every_mode(self, unstable):
        # the boundary rows do not depend on n, so the re-imposition keeps
        # one (N+1, 4) block of them, not K copies
        pr, mu, g, _ = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=16)
        bc = af.navier_slip_bcs(g, pr, mu)
        for n in range(1, sim.K + 1):
            assert np.array_equal(af.mode_pencil(g, pr, mu, n).matrix[af.BC_ROWS], bc)
        assert np.array_equal(sim._A_bct, bc.T)


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

    def test_velocity_formed_once_per_step(self, unstable, monkeypatch):
        # the threshold reads the velocity planes that the step then uses:
        # one modal_velocity per threshold test, and a test before each step
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.005, ntheta=8)
        calls = {"velocity": 0, "step": 0}
        velocity, step = annuflow.simulator.modal_velocity, sim.step

        def counted_velocity(*args, **kwargs):
            calls["velocity"] += 1
            return velocity(*args, **kwargs)

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return step(*args, **kwargs)

        monkeypatch.setattr(annuflow.simulator, "modal_velocity", counted_velocity)
        monkeypatch.setattr(sim, "step", counted_step)
        af.escape_experiment(sim, eig, [1e-4, 1e-5], eps_thr=1e-2)
        assert calls["step"] > 100
        assert calls["velocity"] == calls["step"] + 1

    def test_halving_delta_shifts_time(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.005, ntheta=8)
        table = af.escape_experiment(sim, eig, [2e-5, 1e-5], eps_thr=1e-2)
        dT = table[1][1] - table[0][1]
        assert dT == pytest.approx(np.log(2) / eig.lambda1, rel=0.05)

    @pytest.mark.parametrize("deltas", [[], [1e-3], [1e-3, 1e-3]])
    def test_slope_needs_two_distinct_deltas(self, deltas):
        assert af.escape_slope([(d, 1.0 + k) for k, d in enumerate(deltas)]) is None

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
        (-1.0, [1e-3]), (0.0, [1e-3]), (1e-2, [1e-3, 0.0]), (1e-2, [-1e-3]),
        (1e200, [1e-3]), (np.inf, [1e-3]), (1e-200, [1e-3])],
        ids=["eps-negative", "eps-zero", "delta-zero", "delta-negative",
             "eps-square-overflows", "eps-inf", "eps-square-underflows"])
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

    @pytest.mark.parametrize("order", [[1e-4, 1e-6, 1e-5], [1e-5, 1e-4, 1e-6]])
    def test_unsorted_deltas_come_back_in_input_order(self, unstable, order):
        # one batch, each time equal to the delta's own run
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.005, ntheta=8)
        alone = [af.escape_experiment(sim, eig, [d], eps_thr=1e-2)[0] for d in order]
        assert af.escape_experiment(sim, eig, order, eps_thr=1e-2) == alone
        assert [d for d, _ in alone] == order

    def test_step_cap_names_the_first_delta_that_misses(self, unstable, monkeypatch):
        # 1.0 escapes before the first step, and of the two that miss the
        # cap the one earlier in the list is named
        pr, mu, g, eig = unstable
        monkeypatch.setattr(annuflow.simulator, "ESCAPE_MAX_STEPS", 3)
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        with pytest.raises(af.NoEscape, match=r"delta=2e-06 within 3 steps \(t=0.0\)"):
            af.escape_experiment(sim, eig, [1.0, 2e-6, 1e-6], eps_thr=1e-2)

    def test_empty_delta_list(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        assert af.escape_experiment(sim, eig, [], eps_thr=1e-2) == []


def _random_batch(sim, rng, B):
    """B states whose every mode is populated, small enough to step."""
    g = sim.grid
    shape = (B, sim.K, 2, g.N + 1)
    return 1e-3 * rng.standard_normal(shape) * np.sin(np.pi * (g.nodes - 1.0) / 2.0)


class TestBatch:
    @pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "linear"])
    @pytest.mark.parametrize("ntheta", [8, 16, 32])
    def test_members_equal_their_own_steps(self, unstable, ntheta, nonlinear):
        # the Euler start (prev_planes None) and the AB2 step after it, bit
        # for bit, planes and previous advection alike
        pr, mu, g, _ = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.005, ntheta=ntheta, nonlinear=nonlinear)
        X = _random_batch(sim, np.random.default_rng(ntheta), 3)
        batch = [sim.step(af.SimState(0.0, X))]
        batch.append(sim.step(batch[0]))
        for b in range(len(X)):
            one = sim.step(af.SimState(0.0, X[b].copy()))
            for got, want in zip(batch, (one, sim.step(one))):
                assert got.t == want.t
                assert np.array_equal(got.planes[b], want.planes)
                if nonlinear:
                    assert np.array_equal(got.prev_planes[b], want.prev_planes)
                else:
                    assert got.prev_planes is None and want.prev_planes is None

    def test_two_batch_axes(self, unstable):
        pr, mu, g, _ = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.005, ntheta=16)
        X = _random_batch(sim, np.random.default_rng(2), 6)
        flat = sim.step(sim.step(af.SimState(0.0, X)))
        nested = sim.step(sim.step(af.SimState(0.0, X.reshape(2, 3, *X.shape[1:]))))
        assert np.array_equal(nested.planes.reshape(X.shape), flat.planes)
        assert sim.kinetic_energy(nested).shape == (2, 3)

    @pytest.mark.parametrize("ntheta", [8, 16, 32])
    def test_kinetic_energy_per_member(self, unstable, ntheta):
        pr, mu, g, _ = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.005, ntheta=ntheta)
        X = _random_batch(sim, np.random.default_rng(ntheta), 4)
        got = sim.kinetic_energy(af.SimState(0.0, X))
        assert got.shape == (4,)
        want = [sim.kinetic_energy(af.SimState(0.0, x.copy())) for x in X]
        assert got.tolist() == want and all(type(e) is float for e in want)

    def test_rotated_turns_each_member_by_its_modes(self, unstable):
        # the mode count is the planes' third axis from the end, not the
        # member count
        pr, mu, g, _ = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.005, ntheta=16)
        X = _random_batch(sim, np.random.default_rng(5), 2)
        turned = af.SimState(0.0, X).rotated(0.3)
        for b in range(2):
            assert np.array_equal(turned.planes[b],
                                  af.SimState(0.0, X[b].copy()).rotated(0.3).planes)

    def test_one_member_over_the_cfl_limit(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.05, ntheta=8)
        X = np.array([sim.init_from_mode(eig, d).planes for d in (1e-6, 2.0)])
        sim.step(af.SimState(0.0, X[:1].copy()))
        with pytest.raises(af.CFLViolation) as exc:
            sim.step(af.SimState(0.0, X))
        assert exc.value.exit_code == 5

    def test_one_non_finite_member(self, unstable):
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        X = np.array([sim.init_from_mode(eig, 1e-2).planes] * 3)
        X[1, 0, 0] = np.nan
        with pytest.raises(af.SolverFailure) as exc:
            sim.step(af.SimState(0.0, X))
        assert exc.value.exit_code == 3

    @pytest.mark.parametrize("method", ["energies", "diagnostics", "energy_residual", "run"])
    def test_single_state_readers_refuse_a_batch(self, unstable, method):
        # each of these sums over the modes' axis; on a batch it would add
        # up the members
        pr, mu, g, eig = unstable
        sim = af.Simulator(pr, g, mu=mu, dt=0.01, ntheta=8)
        one = sim.init_from_mode(eig, 1e-2)
        batch = af.SimState(0.0, np.array([one.planes] * 2))
        later = af.SimState(0.01, batch.planes)
        call = {"energy_residual": lambda: sim.energy_residual(batch, later),
                "run": lambda: sim.run(batch, 2)}.get(
                    method, lambda: getattr(sim, method)(batch))
        with pytest.raises(af.GridMismatch, match="one state") as exc:
            call()
        assert exc.value.exit_code == 2
