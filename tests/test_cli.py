"""CLI harness: determinism, file contracts, exit codes."""

import json
from pathlib import Path

import pytest

from sdfo import DirectionGenerator, QuasiRandomSphere, ds_run, get_problem, required_samples
from sdfo.cli import main
from sdfo.config import load_config
from sdfo.trace import read_trace_csv
from sdfo.trust_region import default_k_f


def write_run_config(path, out_dir, seeds=(0, 1, 2), max_iters=40, algorithm="direct_search"):
    cfg = {
        "schema_version": 1,
        "algorithm": algorithm,
        "problem": {"name": "l1norm", "dimension": 2},
        "noise": {"kind": "gaussian", "variance": 0.01},
        "seeds": list(seeds),
        "x0": [2.0, 2.0],
        "config": {
            "delta0": 1.0,
            "tau": 0.1,
            "tau_bar": 1.1,
            "max_iters": max_iters,
            "theta": 0.25,
            "eps_f_hint": 0.01,
        },
        "sampler": {"kind": "fixed", "n": 5},
        "output": {"directory": str(out_dir)},
    }
    if algorithm == "trust_region":
        cfg["config"]["delta_max"] = 2.0
        cfg["config"]["hessian"] = {"policy": "zero"}
    path.write_text(json.dumps(cfg, indent=2))
    return path


def write_audit_config(path, out_dir, conditions=("a1",), trials=2000):
    cfg = {
        "schema_version": 1,
        "algorithm": "audit",
        "problem": {"name": "sphere", "dimension": 2},
        "noise": {"kind": "gaussian", "variance": 1.0},
        "sampler": {"kind": "variance", "k_f": 1.0},
        "audit": {
            "conditions": list(conditions),
            "eps_f": 2.0,
            "eps_q": 4.0,
            "p_grid": [0.5, 0.25],
            "delta_grid": [1.0, 0.5],
            "trials": trials,
            "direction": [1.0, 0.0],
            "x": [0.5, -0.25],
            "k_f": 1.0,
            "seed": 3,
        },
        "output": {"directory": str(out_dir)},
    }
    path.write_text(json.dumps(cfg, indent=2))
    return path


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestListProblems:
    def test_lists_registry(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out.split()
        assert "l1norm" in out and "sphere" in out


class TestRun:
    def test_batch_file_contract(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "cfg.json", out, seeds=range(5))
        assert main(["run", str(cfg)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(
            [f"direct_search_l1norm_seed{s}.csv" for s in range(5)]
            + ["direct_search_l1norm_summary.csv"]
        )

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = write_run_config(tmp_path / "cfg.json", out1)
        assert main(["run", str(cfg)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        assert read_all(out1) == read_all(out2)

    def test_jobs_parallelism_matches_serial(self, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        cfg = write_run_config(tmp_path / "cfg.json", out1, seeds=(0, 1, 2, 3))
        assert main(["run", str(cfg)]) == 0
        assert main(["run", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
        assert read_all(out1) == read_all(out2)

    def test_seed_offset_shifts_filenames(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "cfg.json", out, seeds=(0, 1))
        assert main(["run", str(cfg), "--seed-offset", "10"]) == 0
        names = {p.name for p in out.iterdir()}
        assert "direct_search_l1norm_seed10.csv" in names
        assert "direct_search_l1norm_seed11.csv" in names

    def test_env_var_overrides_directory(self, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("SDFO_OUT", str(env_out))
        cfg = write_run_config(tmp_path / "cfg.json", tmp_path / "ignored")
        assert main(["run", str(cfg)]) == 0
        assert env_out.exists() and any(env_out.iterdir())

    def test_trust_region_runs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "cfg.json", out, algorithm="trust_region", seeds=(0,))
        assert main(["run", str(cfg)]) == 0
        assert (out / "trust_region_l1norm_seed0.csv").exists()

    def test_dimension_beyond_thirty(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_run_config(tmp_path / "cfg.json", out, seeds=(0,), max_iters=5)
        raw = json.loads(cfg_path.read_text())
        raw["problem"]["dimension"] = 31
        raw["x0"] = [1.0] * 31
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path)]) == 0
        assert (out / "direct_search_l1norm_seed0.csv").exists()

    def test_trace_header_metadata(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "cfg.json", out, seeds=(0,))
        main(["run", str(cfg)])
        text = (out / "direct_search_l1norm_seed0.csv").read_text()
        assert "# schema_version=1" in text
        assert "# algorithm=direct_search" in text
        assert "# seed=0" in text


class TestAudit:
    def test_audit_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_audit_config(tmp_path / "a.json", out, conditions=("a1", "variance"))
        assert main(["audit", str(cfg)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "audit_a1_sphere.csv",
            "audit_variance_sphere.csv",
            "audit_sphere_summary.txt",
        }
        assert "tail audit [a1]" in capsys.readouterr().out

    def test_audit_csv_reports_draws(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_audit_config(tmp_path / "a.json", out)
        assert main(["audit", str(cfg)]) == 0
        lines = (out / "audit_a1_sphere.csv").read_text().splitlines()
        # Two p-cells at n = 1 (delta 1) and n = 16 (delta 0.5), 2000 trials.
        assert "# draws=136000" in lines

    def test_heavy_tail_audit_route(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "ht.json"
        cfg = {
            "schema_version": 1,
            "algorithm": "audit",
            "problem": {"name": "sphere", "dimension": 2},
            "noise": {"kind": "pareto_symmetric", "r": 1.5},
            "sampler": {"kind": "moment", "k_f": 1.0, "eps_q": 1.0},
            "audit": {
                "conditions": ["a2h"],
                "eps_f": 1.0,
                "eps_q": 1.0,
                "delta_grid": [1.0],
                "h": 3.0,
                "alpha_grid": [1.0, 2.0, 4.0],
                "trials": 2000,
                "direction": [1.0, 0.0],
                "k_f": 1.0,
            },
            "output": {"directory": str(out)},
        }
        cfg_path.write_text(json.dumps(cfg))
        assert main(["audit", str(cfg_path)]) == 0
        assert (out / "audit_a2h_sphere.csv").exists()

    def test_zero_noise_audit_all_zero(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "a.json"
        write_audit_config(cfg_path, out)
        raw = json.loads(cfg_path.read_text())
        raw["noise"] = {"kind": "none"}
        raw["sampler"] = {"kind": "fixed", "n": 1}
        cfg_path.write_text(json.dumps(raw))
        assert main(["audit", str(cfg_path)]) == 0
        rows = [
            line
            for line in (out / "audit_a1_sphere.csv").read_text().splitlines()
            if line and not line.startswith(("#", "p,"))
        ]
        assert all(row.split(",")[3] == "0" for row in rows)


class TestErrors:
    def test_unknown_problem_exit_code_and_message(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        write_run_config(cfg_path, tmp_path / "out")
        raw = json.loads(cfg_path.read_text())
        raw["problem"]["name"] = "banana"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "banana" in err and "l1norm" in err

    def test_parse_error_line_numbered(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{\n not json\n}")
        assert main(["run", str(cfg_path)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_trials_floor_validation(self, tmp_path, capsys):
        cfg_path = tmp_path / "a.json"
        write_audit_config(cfg_path, tmp_path / "out", trials=100)
        assert main(["audit", str(cfg_path)]) == 2
        assert "trials" in capsys.readouterr().err

    def test_subcommand_algorithm_mismatch(self, tmp_path, capsys):
        run_cfg = write_run_config(tmp_path / "r.json", tmp_path / "out")
        assert main(["audit", str(run_cfg)]) == 2
        audit_cfg = write_audit_config(tmp_path / "a.json", tmp_path / "out")
        assert main(["run", str(audit_cfg)]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "cfg.json", out)
        assert main(["run", str(cfg), "--jobs", jobs]) == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    # Each of these used to exit 0 with every audit cell PASS at frequency 0.
    @pytest.mark.parametrize(
        "block,field,value",
        [
            ("audit", "eps_f", float("nan")),
            ("audit", "delta_grid", [float("nan")]),
            ("audit", "k_f", float("inf")),
            ("noise", "variance", float("nan")),
        ],
        ids=["eps_f_nan", "delta_nan", "k_f_inf", "variance_nan"],
    )
    def test_non_finite_audit_value_rejected(self, tmp_path, capsys, block, field, value):
        out = tmp_path / "out"
        cfg_path = write_audit_config(tmp_path / "a.json", out, conditions=("a1", "variance"))
        raw = json.loads(cfg_path.read_text())
        raw["sampler"] = {"kind": "fixed", "n": 4}
        raw[block][field] = value
        cfg_path.write_text(json.dumps(raw))
        assert main(["audit", str(cfg_path)]) == 2
        assert f"error: {block}" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_curvature_clip_rejected(self, tmp_path, capsys):
        # M**2 used to overflow in curvature_floor: exit 1 with a traceback.
        out = tmp_path / "out"
        cfg_path = write_run_config(tmp_path / "r.json", out, algorithm="trust_region")
        raw = json.loads(cfg_path.read_text())
        raw["config"]["hessian"] = {"policy": "regression_clipped", "q": 0.5, "m": 10, "M": 1e200}
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: hessian policy RegressionClipped(")
        assert "curvature floor" in err
        assert not out.exists()

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 2


ROOT = Path(__file__).resolve().parent.parent


class TestStrictConfig:
    def test_misspelled_floor_exits_2(self, tmp_path, capsys):
        raw = json.loads((ROOT / "configs" / "trust_region_l1norm.json").read_text())
        raw["delta_flor"] = 0.05
        raw["output"]["directory"] = str(tmp_path / "out")
        cfg_path = tmp_path / "tr.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: delta_flor: unknown key")
        assert not (tmp_path / "out").exists()

    def test_overflowing_a2h_threshold_exits_2(self, tmp_path, capsys):
        raw = json.loads((ROOT / "tests" / "data" / "golden_audit.json").read_text())
        raw["audit"].update(conditions=["a2h"], h=2000.0, delta_grid=[2.0])
        cfg_path = tmp_path / "a2h.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["audit", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: threshold at delta=2.0, alpha=4.0 is not finite\n"

    def test_auto_sampler_matches_library_default(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_run_config(tmp_path / "cfg.json", out, seeds=(0, 1), max_iters=12)
        raw = json.loads(cfg_path.read_text())
        raw.update(sampler={"kind": "auto"}, delta_floor=0.3)
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        for seed in cfg.seeds:
            _, records = ds_run(
                cfg.algo, get_problem("l1norm", 2), cfg.noise,
                DirectionGenerator(2, QuasiRandomSphere()), cfg.x0, seed=seed, delta_floor=0.3,
            )
            trace = read_trace_csv(out / f"direct_search_l1norm_seed{seed}.csv")
            assert [(r.est_current, r.samples_trial) for r in trace] == [
                (r.est_current, r.samples_trial) for r in records
            ]
            assert records[0].samples_trial == required_samples(0.01, default_k_f(cfg.algo), 1.0) > 1
