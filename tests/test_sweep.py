import csv
import json
from dataclasses import astuple

import numpy as np
import pytest

import annuflow as af
from annuflow.io import write_csv, write_manifest
from annuflow.sweep import SWEEP_HEADER


class TestSweepSpec:
    def test_defaults_valid(self):
        spec = af.SweepSpec()
        assert len(spec.alphas()) == 6 and len(spec.bs()) == 6

    def test_rejects_empty_ranges(self):
        with pytest.raises(af.InvalidPhysics):
            af.SweepSpec(alpha_samples=0)

    def test_rejects_large_offset(self):
        with pytest.raises(af.InvalidPhysics):
            af.SweepSpec(mu_offset=-0.5)

    def test_rejects_decreasing_range(self):
        with pytest.raises(af.InvalidPhysics):
            af.SweepSpec(b_range=(10.0, 5.0))


@pytest.fixture(scope="module")
def small_spec():
    return af.SweepSpec(alpha_range=(5.0, 10.0), alpha_samples=2,
                        b_range=(3.0, 6.0), b_samples=2, N=32)


class TestSweep:
    def test_row_count_and_order(self, small_spec):
        rows = af.sweep_l(small_spec)
        assert len(rows) == 4
        assert [(r.alpha, r.b) for r in rows] == [
            (5.0, 3.0), (5.0, 6.0), (10.0, 3.0), (10.0, 6.0)]

    def test_reference_point_supercritical(self):
        spec = af.SweepSpec(alpha_range=(5.0, 5.0), alpha_samples=1,
                            b_range=(3.0, 3.0), b_samples=1, N=48)
        row = af.sweep_l(spec)[0]
        assert row.status == "ok"
        assert row.l < 0
        assert row.classification == "Supercritical"
        assert row.mu_c == pytest.approx(1.3404, abs=2e-4)
        assert row.lambda1 > 0  # just below critical

    def test_deterministic(self, small_spec, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(str(p1), SWEEP_HEADER, map(astuple, af.sweep_l(small_spec)))
        write_csv(str(p2), SWEEP_HEADER, map(astuple, af.sweep_l(small_spec)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header(self, small_spec, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(str(path), SWEEP_HEADER, map(astuple, af.sweep_l(small_spec)))
        with open(path) as fh:
            header = next(csv.reader(fh))
        assert header == ["alpha", "b", "mu_c", "lambda1", "l", "class", "status"]

    def test_resolution_stability(self):
        ls = []
        for N in (48, 96):
            spec = af.SweepSpec(alpha_range=(7.0, 7.0), alpha_samples=1,
                                b_range=(4.0, 4.0), b_samples=1, N=N)
            ls.append(af.sweep_l(spec)[0].l)
        assert abs(ls[0] - ls[1]) / abs(ls[1]) < 1e-4


class TestSignGate:
    def test_wrong_sign_of_lambda1_is_a_failure(self):
        # lambda1 must be positive below mu_c, whose closed form is exact;
        # at b/a = 1000 and N = 48 it is -7.0e-5
        row = af.evaluate_point(1.0, 1000.0, 5.0, -1e-4,
                                af.build_grid(1.0, 1000.0, 48))
        assert row.status.startswith("EigSolverFailure")
        assert row.l is None

    def test_reference_point_passes_on_both_sides(self):
        grid = af.build_grid(1.0, 3.0, 48)
        for offset in (-1e-2, -1e-4, 1e-4, 1e-2):
            row = af.evaluate_point(1.0, 3.0, 5.0, offset, grid)
            assert row.status == "ok"
            assert np.sign(row.lambda1) == -np.sign(offset)


class TestBoundary:
    def test_noflip_reported_not_thrown(self):
        spec = af.SweepSpec(alpha_range=(5.0, 5.0), alpha_samples=1,
                            b_range=(5.0, 15.0), b_samples=2, N=32)
        res = af.boundary_bisect(spec, 5.0)
        assert res.status == "NoFlip"
        assert res.b_star is None
        assert np.sign(res.l_lo) == np.sign(res.l_hi)

    def test_manifest_written(self, tmp_path):
        spec = af.SweepSpec()
        path = tmp_path / "manifest.json"
        write_manifest(str(path), "sweep", spec.to_dict(), [])
        doc = json.loads(path.read_text())
        assert doc["inputs"]["a"] == 1.0
        assert "version" in doc
