import json
import subprocess
import sys
import time
from math import log

import numpy as np
import pytest
from click.testing import CliRunner

from treeshift import alphabet_graph
from treeshift.cli import _emit, _sanitize, main

from conftest import NINE_ADJACENCY

EXAMPLE1 = {
    "symbols": ["0", "1"],
    "adjacency": [[1, 1], [1, 0]],
    "d": 2,
    "M": [[0.5, 1.0], [0.5, 0.0]],
    "A": [[1.0, 2.0], [1.0, 0.0]],
}

EXAMPLE2_ADJ = {
    "symbols": ["0", "1", "2"],
    "adjacency": [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
    "d": 2,
    "M": [[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]],
    "pi": [0.5, 0.25, 0.25],
}

FULL2 = {"symbols": ["a", "b"], "adjacency": [[1, 1], [1, 1]], "d": 2}

BLOCKS = {
    "symbols": ["a", "b", "c", "d", "e"],
    "adjacency": [
        [1, 1, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 0, 1, 1, 1],
        [0, 0, 1, 1, 1],
        [0, 0, 1, 1, 1],
    ],
    "d": 2,
}

DISCONNECTED = {"symbols": ["a", "b"], "adjacency": [[1, 0], [0, 1]], "d": 2}

# EXAMPLE2_ADJ's period-2 closure {0, 1, 2} beside a self-loop on 3
REDUCIBLE_PERIOD2 = {
    "symbols": ["0", "1", "2", "3"],
    "adjacency": [[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
    "d": 2,
}

# x has no child, so the (A0) reduction leaves y, z
CHILDLESS_X = {"symbols": ["x", "y", "z"], "adjacency": [[0, 1, 0], [0, 1, 1], [0, 1, 1]], "d": 2}

NINE = {"symbols": [f"s{i}" for i in range(9)], "adjacency": NINE_ADJACENCY, "d": 3}

# 0<->1, 0->2, 2<->3: two 2-cycles growing at the same rate
EQUAL_RATE_CYCLES = {
    "symbols": ["0", "1", "2", "3"],
    "adjacency": [[0, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 0, 1, 0]],
    "d": 2,
}


# the full 2-shift on 0, 1 under a root 2 that has no parent
TRANSIENT_ROOT = {
    "symbols": ["0", "1", "2"],
    "adjacency": [[1, 1, 1], [1, 1, 1], [0, 0, 0]],
    "d": 2,
}


def _edges(n, edges, d=2):
    """Model from parent -> children lists; adjacency[child][parent] = 1."""
    adj = [[0] * n for _ in range(n)]
    for parent, children in edges:
        for child in children:
            adj[child][parent] = 1
    return {"symbols": [str(i) for i in range(n)], "adjacency": adj, "d": d}


# 0->{1,2}, 1->{3,4,5}, 2->5, {3,4,5}->0: period 3, optimum on a simplex face
FACE_OPTIMUM = _edges(6, [(0, [1, 2]), (1, [3, 4, 5]), (2, [5]), (3, [0]), (4, [0]), (5, [0])])


def _layered(p):
    """Symbols (k, a), k mod p, a in {0, 1}; every edge (k, a) -> (k+1, b)
    except (0, 1) -> (1, 1).  Period p."""
    def sym(k, a):
        return 2 * (k % p) + a

    return _edges(2 * p, [
        (sym(k, a), [sym(k + 1, b) for b in (0, 1) if (k, a, b) != (0, 1, 1)])
        for k in range(p) for a in (0, 1)
    ])


@pytest.fixture
def write_model(tmp_path):
    def _write(data, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return _write


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def run_json(args):
    result = run_cli(args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestAnalyze:
    def test_two_class_example(self, write_model):
        payload = run_json(["analyze", write_model(EXAMPLE2_ADJ)])
        assert payload["period"] == 2
        assert payload["classes"] == [["0"], ["1", "2"]]
        assert payload["irreducible"]
        assert payload["manifest"]["command"] == "analyze"

    def test_full_shift(self, write_model):
        payload = run_json(["analyze", write_model(FULL2)])
        assert payload["period"] == 1
        assert payload["irreducible"]

    def test_disconnected_reports_violation(self, write_model):
        payload = run_json(["analyze", write_model(DISCONNECTED)])
        assert payload["a1_holds"] is False
        assert payload["recurrent"] == [0, 1]


class TestDimension:
    def test_two_class_model(self, write_model):
        payload = run_json(["dimension", write_model(EXAMPLE2_ADJ)])
        assert payload["dim"] == pytest.approx(log(2) / 3, abs=1e-4)
        assert payload["method"] == "exact_irreducible"
        assert payload["h_top"] == pytest.approx(2 * log(2) / 3, abs=1e-3)

    def test_full_shift(self, write_model):
        payload = run_json(["dimension", write_model(FULL2)])
        assert payload["dim"] == pytest.approx(log(2), abs=1e-10)

    def test_reducible_routes_to_upper_bound(self, write_model):
        payload = run_json(["dimension", write_model(BLOCKS)])
        assert payload["method"] == "upper_bound_general"
        assert payload["dim"] == pytest.approx(log(3), abs=1e-9)

    def test_scan_csv(self, write_model, tmp_path):
        scan = tmp_path / "scan.csv"
        run_json(["dimension", write_model(EXAMPLE2_ADJ), "--scan-csv", str(scan)])
        lines = scan.read_text().strip().splitlines()
        assert lines[0] == "s0,s1,objective"
        assert len(lines) == 52  # header + 51 grid points

    def test_scan_csv_single_point_when_no_search(self, write_model, tmp_path):
        # p = 1: no simplex search runs, the file holds the one point s = [1]
        scan = tmp_path / "scan.csv"
        payload = run_json(["dimension", write_model(FULL2), "--scan-csv", str(scan)])
        lines = scan.read_text().strip().splitlines()
        assert lines[0] == "s0,objective"
        assert len(lines) == 2
        s0, value = map(float, lines[1].split(","))
        assert s0 == 1.0
        assert value == payload["dim"]

    def test_scan_csv_reducible_writes_bounding_closure(self, write_model, tmp_path):
        scan = tmp_path / "scan.csv"
        payload = run_json(
            ["dimension", write_model(REDUCIBLE_PERIOD2), "--scan-csv", str(scan)]
        )
        assert payload["method"] == "upper_bound_general"
        assert payload["dim"] == pytest.approx(log(2) / 3, abs=1e-4)
        lines = scan.read_text().strip().splitlines()
        assert lines[0] == "s0,s1,objective"
        assert len(lines) == 52
        assert min(float(row.split(",")[2]) for row in lines[1:]) >= payload["dim"] - 1e-12

    def test_face_optimum(self, write_model):
        # the minimum lies on the face s1 = 0, below the vertex value 0.3289407
        payload = run_json(["dimension", write_model(FACE_OPTIMUM)])
        assert payload["period"] == 3
        assert payload["dim"] < 0.3289407 - 1e-6
        assert payload["dim"] <= 0.32893827510588425 + 1e-12
        assert payload["argmin_s"][1] == 0.0
        assert 0.0 <= payload["gap"] <= 1e-10

    def test_layered_period16(self, write_model):
        payload = run_json(["dimension", write_model(_layered(16))])
        assert payload["period"] == 16
        assert payload["dim"] <= payload["log_rho_linear"] + 1e-9
        # the scan's vertex e_15 is optimal: one gradient confirms it
        assert payload["iterations"] == 17
        assert payload["argmin_s"][15] == 1.0 and payload["gap"] == 0.0

    def test_gap_zero_without_search(self, write_model):
        assert run_json(["dimension", write_model(FULL2)])["gap"] == 0.0

    def test_equal_rate_cycles(self, write_model):
        payload = run_json(["dimension", write_model(EQUAL_RATE_CYCLES)])
        assert payload["method"] == "upper_bound_general"
        assert payload["dim"] == pytest.approx(0.0, abs=1e-9)

    def test_a0_symbol_names_the_reduced_index(self, write_model):
        # a0 indexes the reduced alphabet: 0 is y there, x in the file
        path = write_model(CHILDLESS_X)
        payload = run_json(["dimension", path])
        assert payload["a0"] == 0
        assert payload["a0_symbol"] == "y" == run_json(["analyze", path])["a0_symbol"]

    @pytest.mark.parametrize("command, model", [("dimension", NINE), ("measure", EXAMPLE2_ADJ)])
    def test_closure_built_once_per_model(self, write_model, monkeypatch, command, model):
        # the model's own closure, and the one linear_spectral_radius builds on W > 0
        builds = []
        build = alphabet_graph._reach

        def counted(adjacency):
            builds.append(len(adjacency))
            return build(adjacency)

        monkeypatch.setattr(alphabet_graph, "_reach", counted)
        run_json([command, write_model(model)])
        assert len(builds) <= 2


class TestRate:
    def test_example1_curve(self, write_model, tmp_path):
        csv_path = tmp_path / "rate.csv"
        payload = run_json(
            ["rate", write_model(EXAMPLE1), "--csv", str(csv_path), "--grid-points", "120"]
        )
        assert payload["alpha1"] == pytest.approx(0.0, abs=1e-4)
        assert payload["alpha2"] == pytest.approx(2 * log(2) / 3, abs=1e-4)
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "alpha,rate,argmax_mu,finite"
        best = min(
            (row for row in rows[1:] if row.split(",")[1] != "inf"),
            key=lambda row: float(row.split(",")[1]),
        )
        alpha, value = float(best.split(",")[0]), float(best.split(",")[1])
        assert alpha == pytest.approx(log(2) / 3, abs=0.01)
        assert value == pytest.approx(0.0, abs=1e-3)

    def test_missing_m_exits_parse(self, write_model, tmp_path):
        result = run_cli(["rate", write_model(FULL2), "--csv", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("option", [
        ["--pressure-tol", "nan"],
        ["--pressure-tol", "0"],
        ["--pressure-tol", "-1"],
        ["--grid-points", "-3"],
    ])
    def test_bad_input_exits_validation(self, write_model, tmp_path, option):
        csv_path = tmp_path / "x.csv"
        result = run_cli(
            ["rate", write_model(EXAMPLE1), "--csv", str(csv_path), "--grid-points", "5", *option]
        )
        assert result.exit_code == 3
        assert not csv_path.exists()

    def test_payload_reports_recursion(self, write_model, tmp_path):
        payload = run_json(
            ["rate", write_model(EXAMPLE1), "--csv", str(tmp_path / "x.csv"), "--grid-points", "20"]
        )
        assert payload["recursion_passes"] > 0
        assert payload["max_depth"] > 0


class TestLln:
    def test_extreme_phases_and_betas(self, write_model):
        payload = run_json(["lln", write_model(EXAMPLE2_ADJ)])
        assert sorted(payload["alpha_star"]) == pytest.approx(
            [-2 * log(2) / 3, -log(2) / 3], abs=1e-9
        )
        assert payload["beta_minus"] == pytest.approx(-log(2) / 2, abs=1e-9)
        assert payload["beta_plus"] == pytest.approx(-log(2) / 2, abs=1e-9)


class TestSimulate:
    def test_reproducible_payload(self, write_model, tmp_path):
        model = write_model(EXAMPLE1)
        args = ["simulate", model, "--depth", "10", "--trials", "10", "--seed", "5",
                "--csv", str(tmp_path / "trials.csv")]
        first = run_json(args)
        second = run_json(args)
        first["manifest"].pop("wall_time_s")
        second["manifest"].pop("wall_time_s")
        assert first == second
        assert first["passed"] is True
        rows = (tmp_path / "trials.csv").read_text().strip().splitlines()
        assert rows[0] == "trial,sample_mean"
        assert len(rows) == 11


class TestOracle:
    def test_probabilities_sum_to_one(self, write_model, tmp_path):
        csv_path = tmp_path / "dist.csv"
        payload = run_json(
            ["oracle", write_model(EXAMPLE1), "--n", "2", "--csv", str(csv_path)]
        )
        assert payload["total_probability"] == pytest.approx(1.0, abs=1e-12)
        assert all(isinstance(c["count"], str) for c in payload["classes"])
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "mean,probability"
        probs = [float(r.split(",")[1]) for r in rows[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_guard_exit_code(self, write_model):
        result = run_cli(
            ["oracle", write_model(EXAMPLE1), "--n", "9", "--class-guard", "500"]
        )
        assert result.exit_code == 5


class TestEntropy:
    def test_full_shift(self, write_model):
        payload = run_json(["entropy", write_model(FULL2)])
        assert 0 < payload["error_bound"] <= 1e-10
        assert payload["h_top"] == pytest.approx(log(2), abs=payload["error_bound"])
        assert payload["depths"] == list(range(len(payload["values"])))

    @pytest.mark.parametrize("model", [
        pytest.param(FULL2, id="full2"),
        pytest.param(EXAMPLE1, id="example1"),
        pytest.param(EXAMPLE2_ADJ, id="example2"),
        pytest.param(FACE_OPTIMUM, id="face_optimum"),
        pytest.param(REDUCIBLE_PERIOD2, id="reducible_period2"),
        pytest.param(EQUAL_RATE_CYCLES, id="equal_rate_cycles"),
        pytest.param(TRANSIENT_ROOT, id="transient_root"),
    ])
    def test_one_readout_in_two_commands(self, write_model, model):
        path = write_model(model)
        entropy = run_json(["entropy", path])
        assert entropy["error_bound"] <= 1e-10
        assert entropy["h_top"] == entropy["values"][-1]
        assert run_json(["dimension", path])["h_top"] == entropy["h_top"]


class TestMeasure:
    def test_two_class_model(self, write_model):
        payload = run_json(["measure", write_model(EXAMPLE2_ADJ)])
        m_star = np.array(payload["M_star"])
        assert m_star[:, 0] == pytest.approx([0.0, 0.5, 0.5], abs=1e-6)
        assert payload["validation_value"] == pytest.approx(log(2) / 3, abs=1e-6)

    def test_face_optimum_certificate(self, write_model):
        payload = run_json(["measure", write_model(FACE_OPTIMUM)])
        assert payload["validation_value"] == pytest.approx(payload["dim"], abs=1e-6)

    def test_reducible_exits_before_the_solve(self, write_model, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("the dimension solve ran")

        monkeypatch.setattr("treeshift.cli.hausdorff_dimension", solve)
        result = run_cli(["measure", write_model(REDUCIBLE_PERIOD2)])
        assert result.exit_code == 3
        assert json.loads(result.stderr.splitlines()[-1])["error"] == "ModelValidationError"

    def test_certificate_tolerance_exit(self, write_model):
        result = run_cli(["measure", write_model(EXAMPLE2_ADJ), "--tol", "1e-18"])
        # either the certificate is exact (fine) or it exits with the numeric code
        assert result.exit_code in (0, 4)


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert run_cli(["analyze", str(bad)]).exit_code == 2

    def test_validation_error(self, write_model):
        model = dict(FULL2, adjacency=[[1, 2], [1, 1]])
        assert run_cli(["analyze", write_model(model)]).exit_code == 3

    def test_numeric_error(self, write_model):
        # a zero bracket width is never reached: NoConvergence
        result = run_cli(["dimension", write_model(EXAMPLE2_ADJ), "--eigen-tol", "0"])
        assert result.exit_code == 4

    @pytest.mark.parametrize(
        "args, model",
        [pytest.param(args, EXAMPLE1, id=" ".join(args)) for args in [
            ["oracle", "--n", "-1"],
            ["oracle", "--root", "5"],
            ["simulate", "--root", "5"],
            ["simulate", "--root", "-1"],
            ["simulate", "--depth", "-1"],
            ["simulate", "--depth", "0"],  # below the period: a phase has no level
            ["simulate", "--trials", "0"],
            ["simulate", "--trials", "1"],  # no standard error from one trial
            ["dimension", "--eigen-tol", "-1"],
            ["dimension", "--eigen-tol", "nan"],
            ["dimension", "--eigen-tol", "inf"],
            ["measure", "--eigen-tol", "-1"],
            ["measure", "--eigen-tol", "nan"],
            ["measure", "--tol", "-1"],
            ["measure", "--tol", "nan"],
            ["oracle", "--class-guard", "-1"],
            ["rate", "--class-index", "7", "--csv", "rate.csv"],
            ["rate", "--class-index", "-1", "--csv", "rate.csv"],
        ]] + [
            # a level of 3^40 nodes overflows the sampler's int64 counts
            pytest.param(["simulate", "--depth", "40"], dict(EXAMPLE1, d=3),
                         id="simulate --depth 40 at d=3"),
        ],
    )
    def test_out_of_range_count_or_root(self, write_model, tmp_path, monkeypatch, args, model):
        monkeypatch.chdir(tmp_path)  # where a run that is not rejected writes its CSV
        result = run_cli([args[0], write_model(model), *args[1:]])
        assert result.exit_code == 3
        record = json.loads(result.stderr.splitlines()[-1])
        assert record["exit_code"] == 3
        assert record["error"] == "ModelValidationError"

    def test_import_does_not_load_scipy(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, treeshift.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_installed_entry_point(self, write_model):
        result = subprocess.run(
            [sys.executable, "-m", "treeshift.cli", "analyze", write_model(FULL2)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["period"] == 1


def _reject(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _error_record(args):
    """Exit code and the JSON error record (last stderr line) of a failing run."""
    result = subprocess.run(
        [sys.executable, "-m", "treeshift.cli", *args], capture_output=True, text=True
    )
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 2  # the human-readable line, then the record
    return result.returncode, json.loads(lines[-1], parse_constant=_reject)


class TestErrorRecord:
    def test_no_convergence(self, write_model):
        code, record = _error_record(["dimension", write_model(EXAMPLE2_ADJ), "--eigen-tol", "0"])
        assert code == record["exit_code"] == 4
        assert record["error"] == "NoConvergence"
        assert record["message"].startswith("eigen bracket width")
        lo, hi = record["bracket"]
        best = record["best"]
        assert set(best) == {"log_rho", "class_index", "iterations", "residual"}
        assert best["iterations"] == 10**4
        assert lo <= best["log_rho"] <= hi

    def test_certificate_miss(self, write_model):
        # the face optimum certifies to about 4e-12, not exactly
        code, record = _error_record(["measure", write_model(FACE_OPTIMUM), "--tol", "0"])
        assert code == record["exit_code"] == 4
        assert record["error"] == "ValidationFailed"
        assert record["expected"] != record["got"]
        assert "bracket" not in record and "best" not in record

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, record = _error_record(["analyze", str(bad)])
        assert code == record["exit_code"] == 2
        assert record["error"] == "ModelParseError"
        assert set(record) == {"exit_code", "error", "message"}

    def test_strict_json_sentinels(self):
        # nan used to come out as "-inf"
        assert _sanitize([float("nan"), float("inf"), -float("inf"), 1.5]) == [
            "nan", "inf", "-inf", 1.5]


class TestEmit:
    def _emitted(self, payload, capsys):
        _emit(payload, "test", "0" * 64, {"n": 1}, time.perf_counter())
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1  # one line
        return json.loads(out, parse_constant=_reject)

    def test_non_finite_payload_takes_the_sentinels(self, capsys):
        payload = {
            "bad": np.float64("inf"),
            "array": np.array([[1.5, np.nan], [-np.inf, 0.25]]),
            "int": np.int64(7),
            "flag": np.bool_(True),
            "symbols": frozenset({"b", "a"}),
            "pair": (1, -0.5),
        }
        got = self._emitted(payload, capsys)
        assert got == json.loads(json.dumps(_sanitize(payload)))
        assert got["bad"] == "inf" and got["array"][0][1] == "nan"
        assert got["flag"] is True and got["symbols"] == ["a", "b"]

    def test_finite_payload_parses_as_the_indented_document(self, capsys):
        payload = {
            "x": np.float64(0.1) * 3,
            "rows": np.arange(6, dtype=np.int64).reshape(2, 3),
            "levels": ((1, 0), (1, 1)),
            "count": str(10**40),
            "nested": {"ok": np.bool_(False), "vals": [np.float32(0.5), 2**70]},
        }
        got = self._emitted(payload, capsys)
        indented = json.dumps(_sanitize(payload), indent=2, allow_nan=False)
        assert got == json.loads(indented)
