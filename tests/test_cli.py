import csv
import json
import os
import sys
import warnings
from dataclasses import astuple

import jsonschema
import numpy as np
import pytest
from mpmath import mp

import annuflow as af
import annuflow.cli
import annuflow.critical
import annuflow.simulator
from annuflow import errors
from annuflow.bifurcation import DEFAULT_MU_OFFSET, field_lattices
from annuflow.cli import main
from annuflow.domain import RATIO_LIMIT
from annuflow.io import (load_schema, read_config, validate_against_schema, write_csv,
                         write_field_csv)
from annuflow.sweep import SWEEP_HEADER, SweepRow, SweepSpec
from conftest import rows


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_literal_dump(path, planes, grid, ntheta, lattice_reference):
    """The field CSV at path holds the grid nodes x theta_lattice(ntheta)
    and, to 1e-13 of each column's max, the literal modal sums of psi,
    v_r = -(1/r) d psi / d theta and v_theta = d psi / dr for the modal
    planes."""
    coeffs = rows(planes)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    nr = len(grid.nodes)
    r, theta, *fields = (col.reshape(nr, ntheta) for col in data.T)
    assert (r == grid.nodes[:, None]).all()
    assert (theta == af.theta_lattice(ntheta)).all()
    n = np.arange(1, len(coeffs) + 1)[:, None]
    refs = [lattice_reference(coeffs, ntheta),
            lattice_reference(-1j * n * coeffs / grid.nodes, ntheta),
            lattice_reference(np.array([grid.d1 @ c for c in coeffs]), ntheta)]
    for got, ref in zip(fields, refs):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("ntheta", [8, 16, 64])
def test_field_csv_bytes_equal_the_row_by_row_template(tmp_path, ntheta,
                                                       field_csv_reference):
    # states from subnormal to 1e300, so that exponents of every width are
    # formatted, and the zero state
    grid = af.build_grid(1.0, 3.0, 24)
    unit = np.random.default_rng(ntheta).standard_normal(((ntheta - 1) // 3, 2, 25))
    for j, scale in enumerate((1e-310, 1e-150, 1.0, 1e150, 1e300, 0.0)):
        path = tmp_path / f"f{j}.csv"
        fields = field_lattices(scale * unit, grid, ntheta)
        write_field_csv(str(path), fields, grid.nodes)
        assert path.read_bytes() == field_csv_reference(
            grid.nodes, af.theta_lattice(ntheta), fields)


class TestMuC:
    def test_reference_value(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "mu-c", "1", "3", "5", "-o", str(tmp_path))
        assert code == 0
        assert doc["mu_c_closed"] == pytest.approx(1.3404, abs=2e-4)
        validate_against_schema(doc, "mu_c")
        assert (tmp_path / "manifest.json").exists()

    def test_oracle_discrepancy(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "mu-c", "2", "6", "5", "--oracle",
                            "-o", str(tmp_path))
        assert code == 0
        assert doc["discrepancy"] < 1e-8

    def test_oracle_without_sign_change_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(annuflow.critical, "det_condition", lambda p, mu: 1.0)
        code, doc = run_cli(capsys, "mu-c", "1", "3", "5", "--oracle",
                            "-o", str(tmp_path))
        assert code == 3
        assert doc["error"] == "NoBracket"

    @pytest.mark.parametrize("b", ["1.000000001", "1.0001"])
    def test_oracle_refuses_thin_gap_exit_3(self, tmp_path, capsys, b):
        # the determinant's root is off by 1.5e9 and 3.5e-4 relative there
        code, doc = run_cli(capsys, "mu-c", "1", b, "5", "--oracle",
                            "-o", str(tmp_path))
        assert code == 3
        assert doc["error"] == "ThinGap"
        assert "0.002" in doc["message"]

    def test_oracle_at_thinnest_accepted_gap(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "mu-c", "1", "1.005", "5", "--oracle",
                            "-o", str(tmp_path))
        assert code == 0
        assert doc["discrepancy"] <= 1e-8

    def test_invalid_geometry_exit_2(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "mu-c", "1", "1", "5", "-o", str(tmp_path))
        assert code == 2
        assert doc["error"] == "InvalidGeometry"
        validate_against_schema(doc, "error")

    @pytest.mark.parametrize("argv,code,error", [
        # the 4x4 determinant overflows from b/a near 3.3e50; its root was NaN
        (["1", "1e60", "5", "--oracle"], 3, "NoBracket"),
        # (b/a)^4 in the closed form raised an uncaught OverflowError
        (["1", "1e80", "5"], 2, "InvalidGeometry"),
    ], ids=["oracle-1e60", "closed-form-1e80"])
    def test_huge_ratio_fails_loudly(self, tmp_path, capsys, argv, code, error):
        assert main(["mu-c", *argv, "-o", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == error
        assert "NaN" not in out and err == ""

    @pytest.mark.parametrize("b", ["5e76", repr(float(np.nextafter(RATIO_LIMIT, 0.0)))],
                             ids=["5e76", "below-limit"])
    def test_widest_gaps_are_finite_and_exact(self, tmp_path, capsys, b):
        # the closed form's (b/a)^4 made mu_c NaN from b/a = 3e76
        assert main(["mu-c", "1", b, "5", "-o", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        got = json.loads(out)["mu_c_closed"]
        with mp.workdps(90):
            s = mp.mpf(float(b))
            ref = 5 * (1 + 3 * s**4 - 4 * s**2 - 4 * s**4 * mp.log(s)) / (
                2 * (s**4 - 1 - 4 * s**4 * mp.log(s)))
        assert np.isfinite(got) and abs(got - ref) / ref < 1e-14
        assert err == ""

    def test_non_finite_report_is_an_error_document(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(annuflow.cli, "mu_c_closed", lambda params: float("nan"))
        assert main(["mu-c", "1", "3", "5", "-o", str(tmp_path)]) == 2

        def no_constant(name):
            raise AssertionError(f"non-JSON constant {name}")
        doc = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert doc["error"] == "ValueError"
        validate_against_schema(doc, "error")
        assert list(tmp_path.iterdir()) == []  # neither mu_c.json nor a manifest


class TestEigen:
    def test_lambda_positive_below_critical(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "eigen", "1", "3", "5", "1.2", "-N", "48",
                            "-o", str(tmp_path))
        assert code == 0
        assert doc["lambda1"] > 0
        assert len(doc["psi1_samples"]) == 49
        validate_against_schema(doc, "eigen")

    def test_real_profile_written_once(self, tmp_path, capsys):
        # psi1_samples and the profile CSV carry the real Psi_1 in one
        # column each, with no imaginary column
        code, doc = run_cli(capsys, "eigen", "1", "3", "5", "1.2", "-N", "24",
                            "--profile-csv", "p.csv", "-o", str(tmp_path))
        assert code == 0
        grid = af.build_grid(1, 3, 24)
        eig = af.leading_eigenpair(af.validate(1, 3, 5, 1.2), 1.2, grid)
        pairs = [[s["r"], s["psi"]] for s in doc["psi1_samples"]]
        assert pairs == np.column_stack([grid.nodes, eig.psi1]).tolist()
        with open(tmp_path / "p.csv") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["r", "psi1"]
        assert [[float(x) for x in row] for row in table[1:]] == pairs
        doc["psi1_samples"][0]["im"] = 0.0
        with pytest.raises(Exception, match="im"):
            validate_against_schema(doc, "eigen")

    def test_near_zero_at_critical(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "eigen", "1", "3", "5",
                            "1.3403712354824624", "-N", "64", "-o", str(tmp_path))
        assert code == 0
        assert abs(doc["lambda1"]) < 1e-5


class TestBifurcate:
    def test_emits_fields_and_contours(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "bifurcate", "1", "3", "5", "--phases", "2",
                            "-N", "40", "--ntheta", "32", "-o", str(tmp_path))
        assert code == 0
        assert doc["classification"] == "Supercritical"
        assert doc["l"] < 0
        validate_against_schema(doc, "bifurcate")
        for j in range(2):
            assert (tmp_path / f"field_phase{j}.csv").exists()
            svg = (tmp_path / f"field_phase{j}.svg").read_text()
            assert svg.startswith("<svg")
        with open(tmp_path / "field_phase0.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["r", "theta", "psi", "v_r", "v_theta"]

    def test_field_dump_is_the_literal_field(self, tmp_path, capsys,
                                             lattice_reference):
        code, doc = run_cli(capsys, "bifurcate", "1", "3", "5", "--phases", "1",
                            "-N", "24", "--ntheta", "16", "-o", str(tmp_path))
        assert code == 0
        params, grid = af.validate(1, 3, 5), af.build_grid(1, 3, 24)
        rep = af.bifurcation_report(params, doc["mu"], grid)
        assert_literal_dump(tmp_path / "field_phase0.csv",
                            rep.coeffs(rep.amplitude), grid, 16, lattice_reference)

    def test_phases_are_rotations(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "bifurcate", "1", "3", "5", "--phases", "4",
                          "-N", "40", "--ntheta", "32", "-o", str(tmp_path))
        assert code == 0

        def load(j):
            data = np.loadtxt(tmp_path / f"field_phase{j}.csv",
                              delimiter=",", skiprows=1)
            return data[:, 2].reshape(41, 32)

        f0, f1 = load(0), load(1)
        # phase step 2 pi / 4 advances the n=1 pattern by a quarter turn
        assert np.abs(np.roll(f0, -8, axis=1) - f1).max() < 1e-10

    def test_solves_eigenproblem_once(self, tmp_path, capsys, monkeypatch):
        import annuflow.bifurcation
        import annuflow.cli
        solve = annuflow.bifurcation.leading_eigenpair
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        for module in (annuflow.bifurcation, annuflow.cli):
            monkeypatch.setattr(module, "leading_eigenpair", counted)
        code, _ = run_cli(capsys, "bifurcate", "1", "3", "5", "--phases", "1",
                          "-N", "40", "-o", str(tmp_path))
        assert code == 0
        assert len(calls) == 1

    def test_synthesizes_each_phase_once(self, tmp_path, capsys, monkeypatch):
        # the SVG draws the psi lattice that the field CSV wrote
        import annuflow.bifurcation
        synth = annuflow.bifurcation.synthesize_lattice
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return synth(*args, **kwargs)

        monkeypatch.setattr(annuflow.bifurcation, "synthesize_lattice", counted)
        monkeypatch.setattr(annuflow.cli, "synthesize_lattice", counted, raising=False)
        code, _ = run_cli(capsys, "bifurcate", "1", "3", "5", "--phases", "3",
                          "-N", "24", "--ntheta", "16", "-o", str(tmp_path))
        assert code == 0
        assert len(calls) == 3

    def test_default_mu_is_the_shared_offset(self, tmp_path, capsys):
        from annuflow.bifurcation import DEFAULT_MU_OFFSET
        code, doc = run_cli(capsys, "bifurcate", "1", "3", "5", "-N", "24",
                            "-o", str(tmp_path))
        assert code == 0
        assert doc["mu"] == doc["mu_c"] * (1.0 + DEFAULT_MU_OFFSET)
        assert SweepSpec().mu_offset == DEFAULT_MU_OFFSET

    @pytest.mark.parametrize("offset", [DEFAULT_MU_OFFSET, -3e-5])
    def test_help_shows_the_default_offset(self, capsys, monkeypatch, offset):
        # the --mu help is formatted from the constant, so it follows it
        monkeypatch.setattr(annuflow.cli, "DEFAULT_MU_OFFSET", offset)
        with pytest.raises(SystemExit) as exc:
            main(["bifurcate", "--help"])
        assert exc.value.code == 0
        assert f"mu_c * (1 + {offset:g})" in " ".join(capsys.readouterr().out.split())

    def test_large_alpha_is_classified(self, tmp_path, capsys):
        # alpha l depends on b/a alone; the parent's dead zone grew with
        # alpha and refused (1, 3, 1e6) as DegenerateCoefficient
        scaled = []
        for alpha in ("5", "1e6"):
            code, doc = run_cli(capsys, "bifurcate", "1", "3", alpha,
                                "-o", str(tmp_path / alpha))
            assert code == 0
            assert doc["classification"] == "Supercritical"
            scaled.append(doc["alpha"] * doc["l"])
        assert abs(scaled[1] - scaled[0]) <= 1e-9

    def test_unresolved_ntheta_exit_2(self, tmp_path, capsys):
        # psi_s carries modes 1 and 2, which three angles cannot resolve
        code, doc = run_cli(capsys, "bifurcate", "1", "3", "5", "--phases", "1",
                            "-N", "40", "--ntheta", "3", "-o", str(tmp_path))
        assert code == 2
        assert doc["error"] == "GridMismatch"

    def test_unresolved_sign_of_lambda1_exit_3(self, tmp_path, capsys):
        # at b/a = 1000 the N = 48 grid gives lambda1 < 0 below mu_c, which
        # the parent reported as a Subcritical branch of amplitude 1e4
        code, doc = run_cli(capsys, "bifurcate", "1", "1000", "5", "-N", "48",
                            "-o", str(tmp_path))
        assert code == 3
        assert doc["error"] == "EigSolverFailure"
        assert "wrong sign" in doc["message"]

    def test_thinnest_gap_at_the_default_offset(self, tmp_path, capsys):
        # b/a = 1.001 at N = 48 exits 0 (l = -3.84e9); a shift on which
        # numpy's LU meets an exact zero pivot is moved, not reported as a
        # LinAlgError with exit 2
        code, doc = run_cli(capsys, "bifurcate", "1", "1.001", "5", "-N", "48",
                            "-o", str(tmp_path))
        assert code == 0, doc
        assert doc["classification"] == "Supercritical"
        assert doc["l"] == pytest.approx(-3.8396e9, rel=1e-4)

    def test_wrong_side_exit_4(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "bifurcate", "1", "3", "5", "--mu", "1.5",
                            "-N", "40", "-o", str(tmp_path))
        assert code == 4
        assert "branch" in doc["message"]


class TestSimulate:
    @pytest.mark.parametrize("flags", [[], ["--linear"]], ids=["default", "linear"])
    def test_default_run_balances_energy(self, tmp_path, capsys, flags):
        # the balance's defect over the size of its terms, on the samples
        # above GROWTH_FLOOR, reads 9.3e-4 on both: the run decays to
        # rounding, which the floor leaves out
        code, doc = run_cli(capsys, "simulate", *flags, "-o", str(tmp_path))
        assert code == 0
        assert 0 < doc["energy_residual_max"] < 1e-2

    def test_no_sample_above_the_floor_no_residual(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "simulate", "--delta", "0", "--steps", "5",
                            "--ntheta", "8", "-N", "24", "-o", str(tmp_path))
        assert code == 0
        assert doc["energy_residual_max"] is None
        validate_against_schema(doc, "simulate")

    def test_linear_decay_preset(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "simulate", "--steps", "200", "--dt", "0.005",
                            "--ntheta", "8", "-N", "32", "--linear",
                            "--delta", "1e-3", "-o", str(tmp_path))
        assert code == 0
        assert doc["growth_rate"] < 0
        validate_against_schema(doc, "simulate")
        assert (tmp_path / "trajectory.csv").exists()
        with open(tmp_path / "trajectory.csv") as fh:
            header = next(csv.reader(fh))
        assert header[:5] == ["t", "E3", "E1", "E2", "max_psi"]

    def test_trajectory_carries_the_dealiased_modes(self, tmp_path, capsys):
        # ntheta = 32 de-aliases K = 10 modes, and the CSV has one column each
        code, _ = run_cli(capsys, "simulate", "--steps", "2", "--ntheta", "32",
                          "-N", "24", "--mu", "1.2", "-o", str(tmp_path))
        assert code == 0
        with open(tmp_path / "trajectory.csv") as fh:
            header = next(csv.reader(fh))
        assert header[5:] == [f"E_mode{n}" for n in range(1, 11)]

    def test_snapshot_is_the_literal_field(self, tmp_path, capsys,
                                           lattice_reference):
        code, _ = run_cli(capsys, "simulate", "--mu", "1.2", "--steps", "5",
                          "--dt", "0.005", "--delta", "0.05", "--ntheta", "8",
                          "-N", "32", "--snapshot", "-o", str(tmp_path))
        assert code == 0
        params, grid = af.validate(1, 3, 5), af.build_grid(1, 3, 32)
        sim = af.Simulator(params, grid, mu=1.2, dt=0.005, ntheta=8)
        eig = af.leading_eigenpair(params, 1.2, grid)
        state, _ = sim.run(sim.init_from_mode(eig, 0.05), 5, 10)
        assert_literal_dump(tmp_path / "snapshot.csv", state.planes, grid, 8,
                            lattice_reference)

    def test_cfl_exit_5(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "simulate", "--steps", "5", "--dt", "50",
                            "--ntheta", "8", "-N", "32", "--mu", "1.2",
                            "--delta", "0.5", "-o", str(tmp_path))
        assert code == 5
        assert doc["error"] == "CFLViolation"

    def test_escape_cfl_in_one_member_exit_5(self, tmp_path, capsys):
        # delta = 2 breaks the CFL limit in the first step, while 1e-6 could
        # step on; the batch stops with the error a run of 2 alone gives
        code, doc = run_cli(capsys, "simulate", "--mu", "1.2", "--escape", "1e-6,2",
                            "--eps-thr", "1e3", "--dt", "0.05", "--ntheta", "8",
                            "-N", "24", "-o", str(tmp_path))
        assert code == 5
        assert doc["error"] == "CFLViolation"
        validate_against_schema(doc, "error")

    def test_non_finite_state_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(annuflow.simulator, "lu_solve",
                            lambda lu, b, **kw: np.full_like(b, np.nan))
        code, doc = run_cli(capsys, "simulate", "--steps", "5", "--ntheta", "8",
                            "-N", "32", "--mu", "1.2", "-o", str(tmp_path))
        assert code == 3
        assert doc["error"] == "SolverFailure"
        validate_against_schema(doc, "error")

    def test_default_run_evaluates_no_energies_below_the_floor(self, tmp_path, capsys,
                                                              monkeypatch):
        # 101 samples, 17 of them above GROWTH_FLOOR: the initial evaluation,
        # one per sample, and one for the state before each sample above it
        calls, runs = [], []
        energies, run = annuflow.simulator.mode_energies, af.Simulator.run

        def counted(*args, **kwargs):
            calls.append(1)
            return energies(*args, **kwargs)

        def recorded(sim, *args, **kwargs):
            runs.append(run(sim, *args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(annuflow.simulator, "mode_energies", counted)
        monkeypatch.setattr(af.Simulator, "run", recorded)
        code, doc = run_cli(capsys, "simulate", "-o", str(tmp_path))
        assert code == 0
        diags = runs[0][1]
        above = [d.vnorm > annuflow.simulator.GROWTH_FLOOR for d in diags]
        assert (len(diags), sum(above[1:]), len(calls)) == (101, 17, 118)
        assert [d.energy_residual is not None for d in diags] == [False] + above[1:]
        assert doc["energy_residual_max"] == max(d.energy_residual for d in diags[1:]
                                                 if d.energy_residual is not None)

    def test_energies_twice_per_sample(self, tmp_path, capsys, monkeypatch):
        # one initial evaluation, then the sample and the state before it
        calls = []
        orig = annuflow.simulator.mode_energies

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(annuflow.simulator, "mode_energies", counted)
        code, doc = run_cli(capsys, "simulate", "--steps", "100", "--sample-every",
                            "10", "--ntheta", "8", "-N", "32", "--mu", "1.2",
                            "--dt", "0.005", "-o", str(tmp_path))
        assert code == 0
        assert len(calls) == 21
        assert doc["energy_residual_max"] > 0

    def test_sample_every_zero_exit_2(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "simulate", "--steps", "2", "--sample-every", "0",
                            "--ntheta", "8", "-N", "32", "-o", str(tmp_path))
        assert code == 2
        assert doc["error"] == "ValueError"
        validate_against_schema(doc, "error")

    @pytest.mark.parametrize("eps_thr", ["1e200", "inf"])
    def test_escape_threshold_square_must_be_finite(self, tmp_path, capsys, eps_thr):
        # 1e200 squared overflows a float, and an infinite threshold is
        # never reached: both are invalid input, rejected before a step
        code, doc = run_cli(capsys, "simulate", "--mu", "1.2", "--escape", "1e-3",
                            "--eps-thr", eps_thr, "--dt", "0.005", "--ntheta", "8",
                            "-N", "24", "-o", str(tmp_path))
        assert code == 2 and doc["error"] == "ValueError"
        validate_against_schema(doc, "error")

    def test_nonlinear_rate_is_the_linear_twins(self, tmp_path, capsys):
        # the default run decays, and its window is the linear run's
        rates = []
        for extra in ([], ["--linear"]):
            code, doc = run_cli(capsys, "simulate", *extra, "-o", str(tmp_path / "x"))
            assert code == 0
            rates.append(doc["growth_rate"])
        assert rates[0] == pytest.approx(rates[1], rel=1e-6)
        assert "saturation_max_psi" not in doc

    def test_two_equal_modes_give_no_rate(self, tmp_path, capsys, monkeypatch):
        # negative control: no sample has a leading mode, so no rate
        argv = ["simulate", "--mu", "1.2", "--steps", "5", "--sample-every", "1",
                "--ntheta", "8", "-N", "24", "--dt", "0.005", "-o", str(tmp_path)]
        code, doc = run_cli(capsys, *argv)
        assert code == 0 and doc["growth_rate"] > 0
        one_mode = af.Simulator.init_from_mode

        def two_modes(sim, eig, delta):
            planes = np.repeat(one_mode(sim, eig, delta).planes[:1], 2, axis=0)
            e1, e2 = sim.diagnostics(af.SimState(0.0, planes.copy())).mode_energies
            planes[1] *= np.sqrt(e1 / e2)
            return af.SimState(0.0, planes)

        monkeypatch.setattr(af.Simulator, "init_from_mode", two_modes)
        code, doc = run_cli(capsys, *argv)
        assert code == 0 and doc["growth_rate"] is None

    @pytest.mark.parametrize("flag,snapshot", [([], False), (["--snapshot"], True)])
    def test_manifest_records_snapshot(self, tmp_path, capsys, flag, snapshot):
        code, _ = run_cli(capsys, "simulate", "--mu", "1.2", "--steps", "3", "--ntheta", "8",
                          "-N", "24", "--dt", "0.005", *flag, "-o", str(tmp_path))
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["inputs"]["snapshot"] is snapshot
        assert any(p.endswith("snapshot.csv") for p in manifest["outputs"]) is snapshot

    def test_repeated_deltas_give_no_slope(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--mu", "1.2", "--escape", "1e-3,1e-3", "--ntheta",
                         "8", "-N", "24", "--dt", "0.005", "-o", str(tmp_path)])
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert code == 0 and err == ""
        assert doc["slope"] is None and len(doc["escape_times"]) == 2
        validate_against_schema(doc, "escape")
        # negative control: the schema requires the escape times
        del doc["escape_times"]
        with pytest.raises(jsonschema.ValidationError, match="escape_times"):
            validate_against_schema(doc, "escape")

    def test_escape_manifest_records_only_what_it_reads(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "simulate", "--mu", "1.2", "--escape", "1e-3",
                          "--ntheta", "8", "-N", "24", "--dt", "0.005",
                          "-o", str(tmp_path))
        assert code == 0
        inputs = json.loads((tmp_path / "manifest.json").read_text())["inputs"]
        assert inputs["escape"] == "1e-3" and inputs["dt"] == 0.005
        assert inputs["eps_thr"] == 1e-2  # the default, resolved
        assert not {"steps", "delta", "sample_every"} & inputs.keys()

    def test_time_run_rejects_the_escape_threshold(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "simulate", "--eps-thr", "5", "--steps", "3",
                            "-N", "16", "--ntheta", "8", "-o", str(tmp_path))
        assert code == 2
        assert doc == {"error": "InvalidPhysics",
                       "message": "the time run does not read --eps-thr"}
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("flag", [["--steps", "5"], ["--delta", "0.3"],
                                      ["--sample-every", "2"], ["--snapshot"]],
                             ids=["steps", "delta", "sample-every", "snapshot"])
    def test_escape_rejects_unread_flag(self, tmp_path, capsys, flag):
        code, doc = run_cli(capsys, "simulate", "--mu", "1.2", "--escape", "1e-3",
                            *flag, "--ntheta", "8", "-N", "24", "-o", str(tmp_path))
        assert code == 2
        assert doc["error"] == "InvalidPhysics" and flag[0] in doc["message"]
        assert not (tmp_path / "manifest.json").exists()

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 4.0\nsteps = 50\ndt = 0.005\nntheta = 8\n"
                       "N = 32\ndelta = 1e-4  # tiny\n")
        code, doc = run_cli(capsys, "simulate", "--config", str(cfg),
                            "-o", str(tmp_path))
        assert code == 0
        assert doc["mu"] == 4.0 and doc["steps"] == 50

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 4.0\nsteps = 5\nntheta = 8\nN = 24\n")
        code, doc = run_cli(capsys, "simulate", "--config", str(cfg), "--mu", "1.2",
                            "--dt", "0.005", "-o", str(tmp_path))
        assert code == 0
        assert doc["mu"] == 1.2 and doc["steps"] == 5

    @pytest.mark.parametrize("word,nonlinear", [
        ("0", False), ("FALSE", False), ("No", False), ("1", True), ("True", True),
        ("yes", True)])
    def test_config_booleans(self, tmp_path, capsys, word, nonlinear):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nonlinear = {word}\nsteps = 2\nntheta = 8\nN = 24\n")
        code, doc = run_cli(capsys, "simulate", "--config", str(cfg), "--mu", "1.2",
                            "--dt", "0.005", "-o", str(tmp_path))
        assert code == 0
        assert doc["nonlinear"] is nonlinear

    def test_misspelt_boolean_exit_2(self, tmp_path, capsys):
        # a misspelling used to read as false and silently ran the linear model
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonlinear = ture\nsteps = 2\nntheta = 8\nN = 24\n")
        code, doc = run_cli(capsys, "simulate", "--config", str(cfg), "--mu", "1.2",
                            "-o", str(tmp_path))
        assert code == 2
        assert doc["error"] == "ValueError" and "ture" in doc["message"]
        validate_against_schema(doc, "error")
        assert not (tmp_path / "manifest.json").exists()

    def test_uncastable_config_value_names_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 1.5\nntheta = 8\nN = 24\n")
        code, doc = run_cli(capsys, "simulate", "--config", str(cfg), "--mu", "1.2",
                            "-o", str(tmp_path))
        assert code == 2
        assert doc["error"] == "ValueError"
        assert doc["message"].startswith(f"{cfg}: steps = '1.5': invalid literal")
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("flag", [["--dt", "-0.01"], ["--dt", "nan"],
                                      ["--dt", "inf"], ["--delta", "nan"],
                                      ["--delta", "inf"]],
                             ids=["dt-negative", "dt-nan", "dt-inf", "delta-nan",
                                  "delta-inf"])
    def test_bad_dt_or_delta_exit_2(self, tmp_path, capsys, flag):
        code, doc = run_cli(capsys, "simulate", "--mu", "1.2", "--steps", "2", *flag,
                            "--ntheta", "8", "-N", "24", "-o", str(tmp_path))
        assert code == 2
        assert doc["error"] == "ValueError"
        validate_against_schema(doc, "error")
        assert not (tmp_path / "manifest.json").exists()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu = 4.0\n")
        code, doc = run_cli(capsys, "simulate", "--config", str(cfg),
                            "-o", str(tmp_path))
        assert code == 2


@pytest.mark.parametrize("command,line", [("simulate", "seed = 0\n"),
                                          ("sweep", "ntheta = 32\n")],
                         ids=["simulate-seed", "sweep-ntheta"])
def test_removed_keys_exit_2(tmp_path, capsys, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line)
    argv = ["simulate", "--config", str(cfg)] if command == "simulate" else ["sweep", str(cfg)]
    code, doc = run_cli(capsys, *argv, "-o", str(tmp_path))
    assert code == 2
    assert "unknown" in doc["message"]


#: mu_c (1 - 1e-4) at (1, 1000, 5), where N = 48 gives lambda1 = -7.0e-5 < 0
MU_UNRESOLVED = "2.3120181823110975"


@pytest.mark.parametrize("argv", [
    ["eigen", "1", "1000", "5", MU_UNRESOLVED, "-N", "48"],
    ["simulate", "--b", "1000", "--mu", MU_UNRESOLVED, "-N", "48", "--steps", "1"],
], ids=["eigen", "simulate"])
def test_unresolved_sign_of_lambda1_exit_3(tmp_path, capsys, argv):
    # below mu_c the rest state is unstable, so lambda1 < 0 is the grid's fault
    code, doc = run_cli(capsys, *argv, "-o", str(tmp_path))
    assert code == 3
    assert doc["error"] == "EigSolverFailure"
    assert "wrong sign" in doc["message"]
    assert not (tmp_path / "manifest.json").exists()


def test_unresolved_magnitude_of_lambda1_exit_3(tmp_path, capsys):
    # at 1.0001 mu_c the sign of lambda1 is right but its value is 270 times
    # the dispersion relation's; the energy pencil disagrees with collocation
    code, doc = run_cli(capsys, "eigen", "1", "1000", "5", "2.3124806321925475",
                        "-N", "48", "-o", str(tmp_path))
    assert code == 3
    assert doc["error"] == "EigSolverFailure"
    assert "energy pencil" in doc["message"]
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("exc,code", [
    (errors.AnnuflowError, 2), (errors.InvalidGeometry, 2),
    (errors.InvalidPhysics, 2), (errors.GridMismatch, 2), (errors.TooCoarse, 2),
    (errors.SingularSystem, 3), (errors.EigSolverFailure, 3),
    (errors.SolverFailure, 3), (errors.NoBracket, 3), (errors.ThinGap, 3),
    (errors.NoEscape, 3),
    (errors.DegenerateCoefficient, 4), (errors.NoBranch, 4),
    (errors.CFLViolation, 5), (ValueError, 2), (OSError, 2),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_exit_code_by_error(capsys, monkeypatch, exc, code):
    def fail(args):
        raise exc("planted")

    monkeypatch.setattr(annuflow.cli, "cmd_mu_c", fail)
    got, doc = run_cli(capsys, "mu-c", "1", "3", "5")
    assert got == code
    assert doc == {"error": exc.__name__, "message": "planted"}


@pytest.mark.parametrize("argv,taken", [
    (["mu-c", "1", "3", "5"], None),
    (["eigen", "1", "3", "5", "1.2", "-N", "24"], None),
    (["simulate", "--steps", "2", "--ntheta", "8", "-N", "24", "--mu", "1.2"],
     "trajectory.csv"),
], ids=["mu-c", "eigen", "simulate"])
def test_failed_write_prints_only_the_error(tmp_path, capsys, argv, taken):
    # -o names a file, or a directory sits where an output file goes;
    # run_cli fails unless stdout is exactly one JSON document
    out = tmp_path / "out"
    if taken is None:
        out.write_text("")
    else:
        (out / taken).mkdir(parents=True)
    code, doc = run_cli(capsys, *argv, "-o", str(out))
    assert code == 2
    assert doc["error"] in ("FileExistsError", "IsADirectoryError")
    validate_against_schema(doc, "error")


@pytest.mark.parametrize("argv", [
    ["bifurcate", "1", "3", "5", "--phases", "-1"],
    ["simulate", "--steps", "-5"],
    ["simulate", "--escape", "1e-3", "--eps-thr", "-1"],
    ["simulate", "--escape", "1e-3,0"],
], ids=["phases", "steps", "eps-thr", "escape-delta"])
def test_out_of_range_input_exit_2(tmp_path, capsys, argv):
    if argv[0] == "simulate":
        argv = argv + ["--mu", "1.2", "--ntheta", "8", "-N", "24"]
    code, doc = run_cli(capsys, *argv, "-o", str(tmp_path))
    assert code == 2
    validate_against_schema(doc, "error")
    assert not (tmp_path / "manifest.json").exists()


SPEC = ("alpha_min = 5\nalpha_max = 10\nalpha_samples = 2\n"
        "b_min = 3\nb_max = 6\nb_samples = 2\nN = 32\n")


@pytest.mark.parametrize("argv,manifest", [
    (["mu-c", "1", "3", "5", "--oracle"], "manifest.json"),
    (["eigen", "1", "3", "5", "1.2", "-N", "24", "--profile-csv", "p.csv"],
     "manifest.json"),
    (["bifurcate", "1", "3", "5", "--phases", "1", "-N", "32", "--ntheta", "16"],
     "manifest.json"),
    (["simulate", "--steps", "20", "--ntheta", "8", "-N", "24", "--mu", "1.2",
      "--dt", "0.005", "--snapshot"], "manifest.json"),
    (["simulate", "--mu", "1.2", "--escape", "1e-4,1e-3", "--ntheta", "8",
      "-N", "24", "--dt", "0.005"], "manifest.json"),
    (["sweep", "SPEC"], "sweep_manifest.json"),
], ids=["mu-c", "eigen", "bifurcate", "simulate", "escape", "sweep"])
def test_manifest_matches_schema(tmp_path, capsys, argv, manifest):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SPEC)
    out = tmp_path / "out"
    code, _ = run_cli(capsys, *[str(spec) if a == "SPEC" else a for a in argv],
                      "-o", str(out))
    assert code == 0
    doc = json.loads((out / manifest).read_text())
    validate_against_schema(doc, "manifest")
    assert doc["command"] == argv[0]
    assert doc["outputs"] and all(os.path.exists(p) for p in doc["outputs"])


def test_schema_check_requires_jsonschema(monkeypatch):
    # without jsonschema the check once passed any document unchecked
    monkeypatch.setitem(sys.modules, "jsonschema", None)
    with pytest.raises(ImportError):
        validate_against_schema({"nonsense": 1}, "bifurcate")


@pytest.mark.parametrize("argv", [
    ["mu-c", "1", "3", "5"],
    ["eigen", "1", "3", "5", "1.2", "-N", "24"],
    ["bifurcate", "1", "3", "5", "-N", "32"],
], ids=["mu-c", "eigen", "bifurcate"])
def test_manifest_inputs_are_resolved(tmp_path, capsys, argv):
    code, doc = run_cli(capsys, *argv, "-o", str(tmp_path))
    assert code == 0
    inputs = json.loads((tmp_path / "manifest.json").read_text())["inputs"]
    assert not {"command", "outdir", "func"} & inputs.keys()
    assert inputs["a"] == 1.0 and inputs["b"] == 3.0 and inputs["alpha"] == 5.0
    if argv[0] != "mu-c":
        # bifurcate's default mu is resolved from mu_c before it is recorded
        assert inputs["mu"] == doc["mu"] and inputs["N"] == doc["N"]


class TestSweepCommands:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("a = 1\nalpha_min = 5\nalpha_max = 10\n"
                        "alpha_samples = 2\nb_min = 3\nb_max = 6\n"
                        "b_samples = 2\nN = 32\n")
        return str(path)

    def test_sweep_files(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        code, doc = run_cli(capsys, "sweep", spec_file, "-o", str(out))
        assert code == 0
        assert doc["rows"] == 4
        assert (out / "sweep.csv").exists()
        assert (out / "sweep_manifest.json").exists()

    def test_resume_noop_identical(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "sweep", spec_file, "-o", str(out))
        before = (out / "sweep.csv").read_bytes()
        code, doc = run_cli(capsys, "sweep", spec_file, "-o", str(out), "--resume")
        assert code == 0
        assert doc["status"] == "resume-noop"
        assert (out / "sweep.csv").read_bytes() == before

    def test_resume_reruns_changed_spec(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "sweep", spec_file, "-o", str(out))
        with open(spec_file, "a") as fh:
            fh.write("mu_offset = -1e-3\n")
        code, doc = run_cli(capsys, "sweep", spec_file, "-o", str(out), "--resume")
        assert code == 0
        assert doc["rows"] == 4
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert manifest["inputs"]["mu_offset"] == -1e-3

    def test_sweep_csv_quotes_failure_status(self, tmp_path):
        # a failed point's status holds commas and stays one quoted field
        status = "GridMismatch: need a < b, got a=1.0, b=0.5"
        path = tmp_path / "sweep.csv"
        row = SweepRow(5.0, 0.5, None, None, None, "", status)
        write_csv(str(path), SWEEP_HEADER, [astuple(row)])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [7, 7]
        assert rows[1][-1] == status

    def test_sweep_spec_below_a_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.cfg"
        spec.write_text("b_min = 0.5\nb_max = 6\nN = 32\n")
        out = tmp_path / "out"
        code, doc = run_cli(capsys, "sweep", str(spec), "-o", str(out))
        assert code == 2
        assert doc["error"] == "InvalidGeometry"
        assert not (out / "sweep.csv").exists()

    def test_sweep_zero_offset_exit_2(self, spec_file, tmp_path, capsys):
        with open(spec_file, "a") as fh:
            fh.write("mu_offset = 0\n")
        out = tmp_path / "out"
        code, doc = run_cli(capsys, "sweep", spec_file, "-o", str(out))
        assert code == 2
        assert doc["error"] == "InvalidPhysics"
        assert not (out / "sweep.csv").exists()

    def test_sweep_nan_offset_exit_2(self, spec_file, tmp_path, capsys):
        # a NaN offset once passed the range check and failed in LAPACK
        with open(spec_file, "a") as fh:
            fh.write("mu_offset = nan\n")
        out = tmp_path / "out"
        code, doc = run_cli(capsys, "sweep", spec_file, "-o", str(out))
        assert code == 2
        assert doc["error"] == "InvalidPhysics"
        assert "mu_offset" in doc["message"]
        assert not (out / "sweep.csv").exists()

    def test_missing_range_end_is_spec_default(self, tmp_path, capsys):
        spec = tmp_path / "one_end.cfg"
        spec.write_text("alpha_min = 7\nalpha_samples = 1\nb_min = 3\nb_max = 3\n"
                        "b_samples = 1\nN = 32\n")
        out = tmp_path / "out"
        code, doc = run_cli(capsys, "sweep", str(spec), "-o", str(out))
        assert code == 0 and doc["rows"] == 1
        inputs = json.loads((out / "sweep_manifest.json").read_text())["inputs"]
        assert inputs["alpha_range"] == [7.0, SweepSpec.alpha_range[1]]

    def test_sweep_infinite_alpha_max_exit_2(self, spec_file, tmp_path, capsys):
        # an infinite upper end once wrote nan/inf alpha rows to sweep.csv and
        # then failed on the manifest, leaving a CSV without one
        with open(spec_file, "a") as fh:
            fh.write("alpha_max = inf\n")
        out = tmp_path / "out"
        code, doc = run_cli(capsys, "sweep", spec_file, "-o", str(out))
        assert code == 2
        assert doc["error"] == "InvalidPhysics"
        assert not (out / "sweep.csv").exists()

    def test_uncastable_spec_value_names_key_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.cfg"
        spec.write_text("b_min = 3\nb_samples = two\nN = 32\n")
        out = tmp_path / "out"
        code, doc = run_cli(capsys, "sweep", str(spec), "-o", str(out))
        assert code == 2
        assert doc["error"] == "ValueError"
        assert doc["message"].startswith(f"{spec}: b_samples = 'two': invalid literal")
        assert not (out / "sweep.csv").exists()

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha_samples = 0\n")
        code, doc = run_cli(capsys, "sweep", str(path), "-o", str(tmp_path))
        assert code == 2


class TestConfigParsing:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\n\nkey = 1 # trailing\nother = two\n")
        assert read_config(str(path), {"key": int, "other": str}) == {"key": 1, "other": "two"}

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("garbage line\n")
        with pytest.raises(ValueError):
            read_config(str(path), {})


class TestSchemas:
    def test_all_schemas_load(self):
        for name in ("mu_c", "eigen", "bifurcate", "simulate", "manifest", "error"):
            schema = load_schema(name)
            assert schema["type"] == "object"
