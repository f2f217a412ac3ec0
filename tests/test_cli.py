import csv
import json
import os

import numpy as np
import pytest

import annuflow.cli
import annuflow.critical
import annuflow.simulator
from annuflow import errors
from annuflow.cli import main
from annuflow.io import load_schema, read_config, validate_against_schema


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


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

    def test_invalid_geometry_exit_2(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "mu-c", "1", "1", "5", "-o", str(tmp_path))
        assert code == 2
        assert doc["error"] == "InvalidGeometry"
        validate_against_schema(doc, "error")


class TestEigen:
    def test_lambda_positive_below_critical(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "eigen", "1", "3", "5", "1.2", "-N", "48",
                            "-o", str(tmp_path))
        assert code == 0
        assert doc["lambda1"] > 0
        assert len(doc["psi1_samples"]) == 49
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

    def test_wrong_side_exit_4(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "bifurcate", "1", "3", "5", "--mu", "1.5",
                            "-N", "40", "-o", str(tmp_path))
        assert code == 4
        assert "branch" in doc["message"]


class TestSimulate:
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

    def test_cfl_exit_5(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "simulate", "--steps", "5", "--dt", "50",
                            "--ntheta", "8", "-N", "32", "--mu", "1.2",
                            "--delta", "0.5", "-o", str(tmp_path))
        assert code == 5
        assert doc["error"] == "CFLViolation"

    def test_non_finite_state_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(annuflow.simulator, "lu_solve",
                            lambda lu, b, **kw: np.full_like(b, np.nan))
        code, doc = run_cli(capsys, "simulate", "--steps", "5", "--ntheta", "8",
                            "-N", "32", "--mu", "1.2", "-o", str(tmp_path))
        assert code == 3
        assert doc["error"] == "SolverFailure"
        validate_against_schema(doc, "error")

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

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 4.0\nsteps = 50\ndt = 0.005\nntheta = 8\n"
                       "N = 32\ndelta = 1e-4  # tiny\n")
        code, doc = run_cli(capsys, "simulate", "--config", str(cfg),
                            "-o", str(tmp_path))
        assert code == 0
        assert doc["mu"] == 4.0 and doc["steps"] == 50

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


@pytest.mark.parametrize("exc,code", [
    (errors.AnnuflowError, 2), (errors.InvalidGeometry, 2),
    (errors.InvalidPhysics, 2), (errors.GridMismatch, 2), (errors.TooCoarse, 2),
    (errors.SingularSystem, 3), (errors.EigSolverFailure, 3),
    (errors.SolverFailure, 3), (errors.NoBracket, 3), (errors.NoEscape, 3),
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
    (["boundary", "SPEC", "--alpha", "5"], "boundary_manifest.json"),
], ids=["mu-c", "eigen", "bifurcate", "simulate", "escape", "sweep", "boundary"])
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

    def test_boundary_noflip(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        code, doc = run_cli(capsys, "boundary", spec_file, "--alpha", "5",
                            "-o", str(out))
        assert code == 0
        assert doc["points"][0]["status"] == "NoFlip"
        assert (out / "boundary.csv").exists()

    def test_boundary_csv_quotes_failure_status(self, tmp_path, capsys):
        # b_min < a fails the grid with a status that holds commas
        spec = tmp_path / "bad.cfg"
        spec.write_text("alpha_min = 5\nalpha_max = 5\nalpha_samples = 1\n"
                        "b_min = 0.5\nb_max = 6\nN = 32\n")
        out = tmp_path / "out"
        code, doc = run_cli(capsys, "boundary", str(spec), "-o", str(out))
        assert code == 0
        assert doc["points"][0]["status"].startswith("GridMismatch: ")
        with open(out / "boundary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [3, 3]
        assert rows[1][2] == doc["points"][0]["status"]

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha_samples = 0\n")
        code, doc = run_cli(capsys, "sweep", str(path), "-o", str(tmp_path))
        assert code == 2


class TestConfigParsing:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\n\nkey = 1 # trailing\nother = two\n")
        assert read_config(str(path)) == {"key": "1", "other": "two"}

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("garbage line\n")
        with pytest.raises(ValueError):
            read_config(str(path))


class TestSchemas:
    def test_all_schemas_load(self):
        for name in ("mu_c", "eigen", "bifurcate", "simulate", "manifest", "error"):
            schema = load_schema(name)
            assert schema["type"] == "object"
