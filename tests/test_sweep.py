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

    def test_rejects_zero_offset(self):
        # lambda1 vanishes at mu_c, so leading_eigenpair's sign check cannot fire
        with pytest.raises(af.InvalidPhysics, match="lambda1 vanishes"):
            af.SweepSpec(mu_offset=0.0)

    def test_rejects_decreasing_range(self):
        with pytest.raises(af.InvalidPhysics):
            af.SweepSpec(b_range=(10.0, 5.0))

    @pytest.mark.parametrize("kwargs,error", [
        ({"b_range": (0.5, 6.0)}, af.InvalidGeometry),
        ({"alpha_range": (-1.0, 15.0)}, af.InvalidPhysics),
        ({"a": -1.0}, af.InvalidGeometry),
        ({"N": 4}, af.TooCoarse),
        ({"b_range": (5.0, np.inf)}, af.InvalidGeometry),
        ({"b_range": (5.0, 1e80)}, af.InvalidGeometry),
        ({"alpha_range": (5.0, np.inf)}, af.InvalidPhysics),
    ], ids=["b_min", "alpha_min", "a", "N", "b_max-inf", "b_max-1e80", "alpha_max-inf"])
    def test_rejects_invalid_point(self, kwargs, error):
        with pytest.raises(error):
            af.SweepSpec(**kwargs)


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


class TestRescaling:
    @pytest.mark.parametrize("N", [48, 96])
    def test_rows_match_direct_evaluation(self, N):
        """sweep_l reduces once per b, at the first alpha, and rescales the
        other rows; against a direct evaluation at each row's own alpha the
        relative differences are at most 1.9e-11 in lambda1 and 5.1e-10 in l."""
        rng = np.random.default_rng(15)
        for _ in range(12):
            alphas = np.sort(rng.uniform(0.5, 20.0, 2))
            b = float(rng.uniform(1.2, 15.0))
            spec = af.SweepSpec(alpha_range=tuple(alphas), alpha_samples=2,
                                b_range=(b, b), b_samples=1, N=N)
            grid = af.build_grid(1.0, b, N)
            for row in af.sweep_l(spec):
                direct = af.evaluate_point(1.0, b, row.alpha, spec.mu_offset, grid)
                assert row.status == direct.status == "ok"
                assert row.classification == direct.classification
                assert row.mu_c == direct.mu_c
                assert row.lambda1 == pytest.approx(direct.lambda1, rel=1e-8, abs=0)
                assert row.l == pytest.approx(direct.l, rel=1e-8, abs=0)

    def test_large_alphas_keep_the_class(self):
        # the parent's dead zone grew with alpha and marked the rows at
        # 5.0e5 and 1e6 DegenerateCoefficient
        spec = af.SweepSpec(alpha_range=(5.0, 1e6), alpha_samples=5,
                            b_range=(3.0, 3.0), b_samples=1, N=48)
        rows = af.sweep_l(spec)
        assert all(r.status == "ok" for r in rows)
        assert all(r.classification == "Supercritical" for r in rows)
        scaled = [r.alpha * r.l for r in rows]
        assert max(scaled) - min(scaled) <= 1e-12 * abs(scaled[0])

    def test_classifies_once_per_b(self, small_spec, monkeypatch):
        import annuflow.bifurcation
        import annuflow.sweep
        classify = annuflow.bifurcation.classify_and_build
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return classify(*args, **kwargs)

        monkeypatch.setattr(annuflow.bifurcation, "classify_and_build", counted)
        monkeypatch.setattr(annuflow.sweep, "classify_and_build", counted,
                            raising=False)
        af.sweep_l(small_spec)
        assert len(calls) == small_spec.b_samples

    @pytest.mark.parametrize("b,cause", [(1000.0, ""), (30.0, "Chebyshev tail")],
                             ids=["1000", "30"])
    def test_failed_reduction_fails_every_alpha(self, b, cause):
        # N = 48 resolves neither b: at b = 1000 lambda1's gates refuse it,
        # at b = 30 the Chebyshev tail of the reduction's profiles does
        spec = af.SweepSpec(alpha_range=(5.0, 15.0), alpha_samples=3,
                            b_range=(b, b), b_samples=1, N=48)
        rows = af.sweep_l(spec)
        assert len(rows) == 3
        assert rows[0].status.startswith("EigSolverFailure")
        assert cause in rows[0].status
        assert all(r.status == rows[0].status and r.l is None for r in rows)

    @pytest.mark.parametrize("routine,error", [("inv", "SingularSystem"),
                                               ("cholesky", "EigSolverFailure")])
    def test_numpy_linalg_error_is_a_row_status(self, monkeypatch, routine, error):
        # numpy raises LinAlgError (a ValueError) where LAPACK meets an
        # exact zero pivot or an indefinite matrix; the reduction reports
        # it as its typed error, so it fails the b, not the whole sweep
        real = getattr(np.linalg, routine)

        def fail(a):
            # the G11 matrix has N + 1 = 33 rows, the energy pencil 31
            if routine == "inv" and len(a) != 33:
                return real(a)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, routine, fail)
        rows = af.sweep_l(af.SweepSpec(alpha_samples=2, b_samples=1, N=32))
        assert [r.status.split(":")[0] for r in rows] == [error, error]


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


def test_manifest_written(tmp_path):
    spec = af.SweepSpec()
    path = tmp_path / "manifest.json"
    write_manifest(str(path), "sweep", spec.to_dict(), [])
    doc = json.loads(path.read_text())
    assert doc["inputs"]["a"] == 1.0
    assert "version" in doc
