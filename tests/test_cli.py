import csv
import json
import os

import numpy as np
import pytest

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

    def test_boundary_noflip(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        code, doc = run_cli(capsys, "boundary", spec_file, "--alpha", "5",
                            "-o", str(out))
        assert code == 0
        assert doc["points"][0]["status"] == "NoFlip"
        assert (out / "boundary.csv").exists()

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
