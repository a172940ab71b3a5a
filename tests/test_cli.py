"""Command line interface: config plumbing, outputs, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from levykle import cli
from levykle.cli import ConfigError, ExperimentConfig, main
from levykle.special import default_e1_inverse

# exact stdout reprs; the values themselves are oracle-checked in test_basis
CAPTURED_D1 = "0.8105694691387022"
CAPTURED_D5 = "0.9596047868002441"


def read(path):
    return path.read_text()


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig()
        cfg.validate()
        assert cfg.model["model"] == "variance_gamma"

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(T=-1.0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(d_list=(5, 5)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(d_list=(25, 5)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="fejer").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(workers=0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=-1).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(gamma_cutoff=float("inf")).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(d_list=(5, 2**26)).validate()
        for bad in ({"n_paths": 0}, {"grid_n": 1}, {"T": float("nan")}, {"d_list": ()}, {"d_list": (0, 5)},
                    {"output_dir": None}, {"model": "gamma"}):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                ExperimentConfig(**bad).validate()
        # Each rule's bound itself is allowed.
        ExperimentConfig(n_paths=1, grid_n=2, seed=0, workers=1, d_list=(1, cli._MAX_DIMENSION)).validate()

    def test_json_config_with_flag_override(self, tmp_path, capsys):
        doc = {"model": {"model": "gamma", "c": 1.0, "rho": 1.0},
               "d_list": [2], "seed": 5, "n_paths": 1,
               "output_dir": str(tmp_path), "prefix": "a"}
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps(doc))
        rc = main(["simulate-paths", "--config", str(cfg_file), "--prefix", "b"])
        assert rc == 0
        assert (tmp_path / "b_path_d2_p0.csv").exists()
        assert not (tmp_path / "a_path_d2_p0.csv").exists()

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"dlist": [5]}))
        assert main(["simulate-paths", "--config", str(cfg_file)]) == 2

    def test_bad_model_kind_is_config_error(self, tmp_path):
        rc = main(["simulate-paths", "--model", "gamma",
                   "--model-param", "c=-3", "--output-dir", str(tmp_path)])
        assert rc == 2

    def test_non_numeric_model_param_is_config_error(self, tmp_path, capsys):
        rc = main(["simulate-paths", "--model", "gamma",
                   "--model-param", "c=abc", "--output-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "c=abc" in err and err.count("\n") == 1

    def test_unknown_model_param_is_config_error(self, tmp_path, capsys):
        for extra in (["--model", "gamma"], []):
            rc = main(["simulate-paths", *extra, "--model-param", "cc=5",
                       "--output-dir", str(tmp_path)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "cc" in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_model_must_be_a_mapping(self, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"model": "gamma"}))
        assert main(["simulate-paths", "--config", str(cfg_file)]) == 2

    def test_bad_d_list_is_config_error(self, tmp_path):
        rc = main(["mc-mean", "--d-list", "5,3", "--output-dir", str(tmp_path)])
        assert rc == 2

    # case -> (command, extra flags, words the error line must hold)
    BAD_INPUTS = {
        "nan-gamma-cutoff": ("mc-mean", ["--gamma-cutoff", "nan"], "gamma_cutoff"),
        # An infinite cutoff is a bad setting, not a series hitting max_terms (exit 3).
        "inf-gamma-cutoff": ("mc-mean", ["--n-paths", "2", "--d-list", "5", "--gamma-cutoff", "inf"],
                             "gamma_cutoff"),
        # Rejected before the n x d and grid x d matrices (GBs here) are allocated.
        "dimension-past-exact-anchors": ("mc-mean", ["--n-paths", "2", "--d-list", "100000000"], "d_list"),
        "validate-too-few-paths": ("validate", ["--n-paths", "50"], "100 paths"),
        "brownian-nan-sigma2": ("mc-mean", ["--model", "brownian", "--model-param", "sigma2=nan"], "finite"),
        "gamma-nan-c": ("mc-mean", ["--model", "gamma", "--model-param", "c=nan"], "finite"),
        "gamma-inf-c": ("mc-mean", ["--model", "gamma", "--model-param", "c=inf"], "finite"),
        "cp-inf-rho": ("simulate-paths", ["--model", "cp_exponential", "--model-param", "rho=inf"], "finite"),
        "vg-nan-c-neg": ("validate", ["--model", "variance_gamma", "--model-param", "c_neg=nan"], "finite"),
        # Parameters in float range whose variance rate or first eigenvalue
        # is not used to end in a traceback with exit 1, the code of a
        # failed validation check.
        "gamma-tiny-rho": ("mc-mean", ["--model", "gamma", "--model-param", "rho=1e-200", "--n-paths", "2"],
                           "variance rate"),
        "vg-tiny-rho-neg": ("mc-mean", ["--model", "variance_gamma", "--model-param", "rho_neg=1e-170",
                                        "--n-paths", "2"], "variance rate"),
        "cp-tiny-rho": ("mc-mean", ["--model", "cp_exponential", "--model-param", "rho=1e-200", "--n-paths", "2"],
                        "variance rate"),
        "validate-cp-tiny-rho": ("validate", ["--model", "cp_exponential", "--model-param", "rho=1e-200"],
                                 "variance rate"),
        **{f"{command}-eigenvalue-overflow": (command, ["--model", "brownian", "--model-param", "sigma2=1e308",
                                                        "-T", "1e10", "--n-paths", n_paths], "first eigenvalue")
           for command, n_paths in (("mc-mean", "2"), ("simulate-paths", "1"), ("validate", "100"))},
    }

    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_bad_input_is_one_line_config_error(self, tmp_path, capsys, case):
        command, extra, words = self.BAD_INPUTS[case]
        # pytest captures warnings, so record them: a warning printed to
        # stderr would be a second line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # The last --n-paths wins, so a case may override this one.
            rc = main([command, "--n-paths", "200", "--d-list", "2", "--grid-n", "3",
                       "--output-dir", str(tmp_path), *extra])
        assert rc == 2
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert err.startswith("error:") and words in err and err.count("\n") == 1, err
        assert not list(tmp_path.iterdir())

    def test_non_integral_json_values_rejected(self, tmp_path, capsys):
        # A JSON value must have its field's type, and is not truncated or
        # parsed ("25" is not the dimensions 2 and 5, true is not the seed 1,
        # null is not the directory "None").
        for field, value in (("n_paths", 2.7), ("d_list", [2.9]), ("grid_n", 3.5), ("seed", 1.5),
                             ("workers", 1.5), ("n_paths", float("inf")), ("d_list", "25"), ("grid_n", "3"),
                             ("seed", True), ("d_list", [True, 3]), ("T", True), ("T", "2.5"), ("T", 10**400),
                             ("gamma_cutoff", "45"), ("mode", 1), ("output_dir", None), ("prefix", None),
                             ("model", {"model": "gamma", "c": True}), ("model", {"model": "gamma", "rho": "1"}),
                             ("model", {"model": "gamma", "c": 10**400})):
            doc = {"n_paths": 2, "d_list": [2], "grid_n": 3, "seed": 1, "output_dir": str(tmp_path / "out"),
                   field: value}
            cfg_file = tmp_path / "exp.json"
            cfg_file.write_text(json.dumps(doc))
            assert main(["mc-mean", "--config", str(cfg_file)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and field in err and err.count("\n") == 1, err
        cfg_file.write_text(json.dumps({"d_list": 5, "output_dir": str(tmp_path / "out")}))
        assert main(["mc-mean", "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        # An integral float is an integer.
        cfg_file.write_text(json.dumps({"n_paths": 2.0, "d_list": [2.0], "grid_n": 3.0,
                                        "output_dir": str(tmp_path / "out")}))
        assert main(["mc-mean", "--config", str(cfg_file)]) == 0
        assert (tmp_path / "out" / "levykle_mcmean_d2.csv").exists()

    # kind -> (values as (JSON value, the same value as flag text), a JSON
    # value of another type, flag text that is no value of the kind or None)
    KIND_CASES = {
        "number": ([(0.5, "0.5"), (2, "2"), (0, "0"), (-1.0, "-1.0"), (float("inf"), "inf")], "1.0", "x"),
        "integer": ([(3, "3"), (1, "1"), (0, "0"), (-1, "-1")], 1.5, "1.5"),
        "integers": ([([2, 3], "2,3"), ([3, 2], "3,2"), ([0], "0"), ([2, 2], "2,2")], "25", "5,x"),
        "string": ([("cesaro", "cesaro"), ("partial", "partial"), ("fejer", "fejer"), ("", "")], None, None),
        "mapping": ([({"model": "gamma"}, "gamma")], "gamma", "foo"),
    }

    @staticmethod
    def config_or_none(argv):
        try:
            return cli._config_from_sources(cli._build_parser().parse_args(["mc-mean", *argv]))
        except ConfigError:
            return None

    @pytest.mark.parametrize("name", list(cli._FIELDS))
    def test_flag_and_json_agree(self, tmp_path, capsys, name):
        # Derived from the schema: a field added later is covered through
        # its kind. Each value gives the same config from its flag and from
        # the JSON field, or exits 2 from both with one line naming it.
        flag = cli._FIELDS[name].flag
        values, wrong_type, bad_text = self.KIND_CASES[cli._FIELDS[name].kind]

        def json_argv(value):
            cfg_file = tmp_path / f"exp{len(list(tmp_path.iterdir()))}.json"
            cfg_file.write_text(json.dumps({name: value}))
            return ["--config", str(cfg_file)]

        def assert_rejected(argv):
            assert main(["mc-mean", *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and (name in err or flag in err) and err.count("\n") == 1, err

        accepted, rejected = [], [json_argv(wrong_type)]
        if bad_text is not None:
            rejected.append([flag, bad_text])
        for value, text in values:
            from_json = self.config_or_none(json_argv(value))
            assert from_json == self.config_or_none([flag, text]), (value, text)
            if from_json is None:
                rejected += [json_argv(value), [flag, text]]
            else:
                accepted.append(from_json)
        assert any(cfg != ExperimentConfig() for cfg in accepted)
        for argv in rejected:
            assert_rejected(argv)

    # Each one used to print argparse's usage block before its error line.
    @pytest.mark.parametrize("argv", [
        ["mc-mean", "--n-paths", "abc"], ["mc-mean", "--mode", "fejer"], ["mc-mean", "--model", "foo"],
        ["mc-mean", "-T", "x"], ["mc-mean", "--d-list", "5,x"], ["mc-mean", "--n-paths"], ["mc-mean", "--bogus", "1"],
        ["mc-mean", "--report", "r.json"], [], ["no-such-command"], ["variance-capture"], ["e1-table", "save", "t.csv"],
    ])
    def test_bad_command_line_is_one_error_line(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err

    def test_help_still_prints(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["mc-mean", "-h"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage:") and all(entry.flag in out for entry in cli._FIELDS.values())


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats takes about half a second to import; only validate's KS
    # checks use it, so no command pays for it at start-up.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", "import sys, levykle.cli; print('scipy.stats' in sys.modules)"],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.strip() == "False"


class TestVarianceCapture:
    def test_frozen_values(self, capsys):
        assert main(["variance-capture", "1", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "d,captured_fraction"
        assert lines[1] == f"1,{CAPTURED_D1}"
        assert lines[2] == f"5,{CAPTURED_D5}"

    def test_rejects_nonpositive(self, capsys):
        # A dimension above the basis bound is refused before any row is
        # printed, not after the rows below it (numpy could not allocate it).
        for d_values in (["0"], ["5", "100000000000"]):
            assert main(["variance-capture", *d_values]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:") and err.count("\n") == 1


class TestCsv:
    def test_rows_are_shortest_round_trip_reprs(self, tmp_path):
        # Whole-column formatting writes what formatting one element at a
        # time wrote: repr of each double, which parses back to it exactly.
        rng = np.random.default_rng(3)
        a = np.concatenate(([0.0, -0.0, 1e-300, -5e-324, 1e300, 0.1, 1.0 / 3.0], rng.standard_normal(50)))
        b = rng.standard_normal(len(a)) * 10.0 ** rng.integers(-20, 20, len(a))
        path = tmp_path / "c.csv"
        cli._write_csv(path, "t,a,b", [cli._csv_column(a), cli._csv_column(a), cli._csv_column(b)])
        rows = [f"{float(x)!r},{float(x)!r},{float(y)!r}" for x, y in zip(a, b)]
        assert read(path) == "t,a,b\n" + "".join(r + "\n" for r in rows)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 1], a) and np.array_equal(back[:, 2], b)
        assert np.array_equal(np.signbit(back[:, 1]), np.signbit(a))


class TestSimulatePaths:
    def test_files_and_nested_dimension_consistency(self, tmp_path):
        base = ["--model", "variance_gamma", "--seed", "9", "--n-paths", "2",
                "--grid-n", "40", "--output-dir", str(tmp_path)]
        assert main(["simulate-paths", *base, "--d-list", "4", "--prefix", "x"]) == 0
        assert main(["simulate-paths", *base, "--d-list", "4,16", "--prefix", "y"]) == 0
        for i in range(2):
            small = read(tmp_path / f"x_path_d4_p{i}.csv")
            assert small.splitlines()[0] == "t,value"
            assert len(small.splitlines()) == 1 + 40
            # same coefficients regardless of how far the d-list extends
            assert small == read(tmp_path / f"y_path_d4_p{i}.csv")
        assert (tmp_path / "y_path_d16_p0.csv").exists()

    def test_path_starts_at_zero(self, tmp_path):
        assert main(["simulate-paths", "--model", "gamma", "--seed", "1",
                     "--d-list", "3", "--grid-n", "10",
                     "--output-dir", str(tmp_path), "--prefix", "p"]) == 0
        first = read(tmp_path / "p_path_d3_p0.csv").splitlines()[1]
        t0, v0 = first.split(",")
        assert float(t0) == 0.0
        assert float(v0) == 0.0


class TestMcMean:
    def test_brownian_mean_and_header(self, tmp_path):
        assert main(["mc-mean", "--model", "brownian", "--seed", "2",
                     "--n-paths", "400", "--d-list", "3", "--grid-n", "16",
                     "--output-dir", str(tmp_path), "--prefix", "m"]) == 0
        lines = read(tmp_path / "m_mcmean_d3.csv").splitlines()
        assert lines[0] == "t,mc_mean,expected,abs_err,stderr"
        assert len(lines) == 17
        for row in lines[1:]:
            t, mean, expected, abs_err, stderr = map(float, row.split(","))
            assert expected == 0.0
            assert abs_err == abs(mean)
            assert abs_err <= 5.0 * stderr + 1e-12

    def test_expected_column_is_mean_ramp(self, tmp_path):
        assert main(["mc-mean", "--model", "gamma", "--seed", "3",
                     "--n-paths", "200", "--d-list", "2", "--grid-n", "8",
                     "-T", "2.0", "--output-dir", str(tmp_path),
                     "--prefix", "g"]) == 0
        lines = read(tmp_path / "g_mcmean_d2.csv").splitlines()[1:]
        for row in lines:
            t, _, expected, _, _ = map(float, row.split(","))
            assert expected == pytest.approx(t * 1.0, rel=1e-12, abs=1e-15)

    def test_worker_count_never_changes_bytes(self, tmp_path):
        # Every command that takes --workers, not only mc-mean; the Brownian
        # run draws the Gaussian part's streams.
        for command, model, n_paths in (("mc-mean", "variance_gamma", "700"), ("mc-mean", "brownian", "700"),
                                        ("simulate-paths", "variance_gamma", "3"),
                                        ("validate", "variance_gamma", "200")):
            outputs = []
            for workers in ("1", "2", "3"):
                out = tmp_path / command / model / f"w{workers}"
                out.mkdir(parents=True)
                argv = [command, "--model", model, "--seed", "4",
                        "--n-paths", n_paths, "--d-list", "2,5", "--grid-n", "12",
                        "--output-dir", str(out), "--workers", workers]
                if command == "validate":
                    argv += ["--report", str(out / "report.json")]
                assert main(argv) == 0
                outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert outputs[0] and outputs[0] == outputs[1] == outputs[2], (command, model)

    @pytest.mark.parametrize("command", ["mc-mean", "simulate-paths", "validate"])
    def test_negative_seed_is_one_line_config_error(self, tmp_path, capsys, command):
        rc = main([command, "--model", "variance_gamma", "--seed", "-1", "--n-paths", "4",
                   "--d-list", "2", "--grid-n", "3", "--output-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be non-negative") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_single_path_is_config_error(self, tmp_path, capsys):
        # One path has no spread, so its standard error would read 0.
        rc = main(["mc-mean", "--model", "variance_gamma", "--n-paths", "1",
                   "--d-list", "3", "--grid-n", "3", "--output-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2 paths" in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_term_cap_exits_three_before_drawing(self, tmp_path, capsys):
        # gamma(c=1e5) truncates at 45.47 * 1e5 arrivals, above max_terms.
        rc = main(["mc-mean", "--model", "gamma", "--model-param", "c=100000",
                   "--n-paths", "2", "--d-list", "3", "--grid-n", "3",
                   "--output-dir", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "4.547e+06" in err and "max_terms=1000000" in err and "0 drawn" in err
        assert not list(tmp_path.iterdir())

    def test_memory_estimate_exits_three_before_sampling(self, tmp_path, monkeypatch, capsys):
        # d = 1e7 needs about 16 GB for a 200-point eigenfunction matrix and
        # 41 GB per 512-sample chunk; with the physical memory read as 1 GiB
        # every sampling command stops with one line before allocating.
        monkeypatch.setattr(cli, "_physical_memory", lambda: 2**30)
        for command in ("mc-mean", "simulate-paths", "validate"):
            rc = main([command, "--model", "variance_gamma", "--n-paths", "512", "--d-list", "10000000",
                       "--output-dir", str(tmp_path)])
            assert rc == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:") and err.count("\n") == 1
            assert "GiB" in err and "1 GiB of physical memory" in err
        # validate at d = 1e5 holds only 0.08 GB of samples, but its moment
        # suite would build d x d arrays of 80 GB each.
        rc = main(["validate", "--model", "variance_gamma", "--n-paths", "100", "--d-list", "100000"])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "d x d" in err and "1 GiB of physical memory" in err
        assert not list(tmp_path.iterdir())

    def test_cesaro_mode_runs(self, tmp_path):
        assert main(["mc-mean", "--model", "brownian", "--mode", "cesaro",
                     "--seed", "5", "--n-paths", "50", "--d-list", "4",
                     "--grid-n", "8", "--output-dir", str(tmp_path),
                     "--prefix", "c"]) == 0
        assert (tmp_path / "c_mcmean_d4.csv").exists()


class TestBlasThreads:
    # A BLAS product whose inner dimension is d, (n x d) @ (d x grid), can
    # change its last bits between one and two OpenBLAS threads (OpenBLAS
    # 0.3.31 does at d = 513 and 3000); the reconstruction's products, one
    # per block of at most 64 columns (a single one of width 5 at d = 5, a
    # last one of width 1 at d = 65), must not. The subprocess prints one digest per output file and worker
    # count, and one for a one-row batch, which BLAS computes by its
    # matrix-vector route.
    SCRIPT = """
import hashlib, sys, tempfile
from pathlib import Path
import numpy as np
from levykle.basis import KleBasis, reconstruct
from levykle.cli import main
z = np.random.default_rng(4).standard_normal((1, 3000))
values = reconstruct(KleBasis(T=1.0, d=3000, alpha=1.0), z, np.linspace(0.0, 1.0, 2000))
print("reconstruct", hashlib.sha256(values.tobytes()).hexdigest(), file=sys.stderr)
with tempfile.TemporaryDirectory() as tmp:
    for command, n_paths in (("mc-mean", "600"), ("simulate-paths", "3")):
        for workers in ("1", "2", "3"):
            out = Path(tmp) / command / workers
            assert main([command, "--model", "variance_gamma", "--seed", "3", "--n-paths", n_paths,
                         "--d-list", "5,65,513,3000", "--output-dir", str(out), "--workers", workers]) == 0
            for path in sorted(out.iterdir()):
                print(workers, path.name, hashlib.sha256(path.read_bytes()).hexdigest(), file=sys.stderr)
"""

    def test_output_bytes_independent_of_blas_threads(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
            run = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env, capture_output=True,
                                 text=True, timeout=600, check=True)
            digests.append([line.split() for line in run.stderr.splitlines()])
        assert digests[0] == digests[1]
        files = {}
        for fields in digests[0][1:]:
            files.setdefault(fields[0], {})[fields[1]] = fields[2]
        assert len(files["1"]) == 4 + 4 * 3
        assert files["1"] == files["2"] == files["3"]


class TestValidate:
    def test_report_written_and_green(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["validate", "--model", "gamma", "--seed", "13",
                   "--n-paths", "2000", "--d-list", "4",
                   "--report", str(out)])
        assert rc == 0
        report = json.loads(read(out))
        assert report["passed"] is True
        err = capsys.readouterr().err
        assert "PASS" in err and "FAIL" not in err

    def test_failing_report_exits_one(self, tmp_path, monkeypatch, capsys):
        def fake(model, **kw):
            return {"model": model.name, "T": 1.0, "d": 1, "n_samples": 100,
                    "seed": 0, "passed": False,
                    "checks": [{"name": "x", "statistic": 9.0, "tolerance": 1.0,
                                "passed": False, "detail": "synthetic"}]}
        monkeypatch.setattr(cli, "run_validation", fake)
        rc = main(["validate", "--n-paths", "100", "--d-list", "2"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err
        assert json.loads(captured.out)["passed"] is False


class TestE1Table:
    def test_dump_and_load_csv(self, tmp_path, capsys):
        dest = tmp_path / "table.csv"
        assert main(["e1-table", "dump", str(dest)]) == 0
        lines = read(dest).splitlines()
        assert lines[0] == "x,E1(x)"
        table = default_e1_inverse()
        assert len(lines) == 1 + len(table.values)
        assert main(["e1-table", "load", str(dest)]) == 0
        assert "loaded" in capsys.readouterr().out

    def test_dump_and_load_npz(self, tmp_path):
        dest = tmp_path / "table.npz"
        assert main(["e1-table", "dump", str(dest)]) == 0
        data = np.load(dest)
        table = default_e1_inverse()
        assert np.array_equal(data["x"], table.values)
        assert np.array_equal(data["e1"], table.breakpoints)
        assert main(["e1-table", "load", str(dest)]) == 0

    def test_custom_build_with_tight_domain(self, tmp_path):
        dest = tmp_path / "small.csv"
        assert main(["e1-table", "dump", str(dest), "--points", "4000",
                     "--lo", "0.1", "--hi", "10.0", "--spacing-bound", "0.004"]) == 0
        assert main(["e1-table", "load", str(dest)]) == 0

    def test_violating_spacing_bound_is_config_error(self, tmp_path):
        rc = main(["e1-table", "dump", str(tmp_path / "bad.csv"),
                   "--points", "50", "--lo", "0.1", "--hi", "10.0"])
        assert rc == 2

    def test_load_missing_file_is_config_error(self, tmp_path):
        assert main(["e1-table", "load", str(tmp_path / "nope.csv")]) == 2

    # case -> (action, file name, file content or None, extra flags)
    BAD_INPUTS = {
        "non-numeric-value": ("load", "t.csv", "x,E1(x)\n1.0,abc\n", []),
        "one-column": ("load", "t.csv", "x\n1.0\n2.0\n", []),
        "non-positive-x": ("load", "t.csv", "x,E1(x)\n-1.0,2.0\n", []),
        "header-only": ("load", "t.csv", "x,E1(x)\n", []),
        "not-an-npz-archive": ("load", "t.npz", "plain text\n", []),
        "missing-directory": ("dump", "missing/t.csv", None, []),
        "domain-beyond-e1-range": ("dump", "t.csv", None, ["--hi", "1000"]),
    }

    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_bad_input_is_one_line_config_error(self, tmp_path, capsys, case):
        action, name, content, extra = self.BAD_INPUTS[case]
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        # pytest captures warnings, so record them: a warning printed to
        # stderr would be a second line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["e1-table", action, str(path), *extra]) == 2
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        if action == "dump":
            assert not path.exists()
