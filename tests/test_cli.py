"""CLI harness: determinism, file contracts, exit codes."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdfo import (
    DirectionGenerator,
    QuasiRandomSphere,
    ds_run,
    get_problem,
    required_samples,
    summarize,
    tr_run,
    write_trace_csv,
)
from sdfo.cli import main
from sdfo.config import load_config
from sdfo.diagnostics import write_summary_csv
from sdfo.oracle import CHUNK_DRAWS
from sdfo.problems import PROBLEMS
from sdfo.trace import read_trace_csv
from sdfo.trust_region import default_k_f

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def test_import_leaves_the_process_pool_unloaded():
    # Only --jobs > 1 starts worker processes; the pool's import pulls in
    # multiprocessing, socket, subprocess and logging.
    script = "import sys, sdfo, sdfo.cli; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert child.stdout == "[]\n"


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

    @pytest.mark.parametrize("jobs", ["2", "3"])
    def test_jobs_parallelism_matches_serial(self, tmp_path, jobs):
        # Five seeds split into uneven lockstep batches across the workers.
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        cfg = write_run_config(tmp_path / "cfg.json", out1, seeds=(0, 1, 2, 3, 4))
        assert main(["run", str(cfg)]) == 0
        assert main(["run", str(cfg), "--out", str(out2), "--jobs", jobs]) == 0
        assert read_all(out1) == read_all(out2)

    def test_jobs_after_the_draw_pool_started(self, tmp_path):
        # A forked --jobs worker inherits no draw thread: the child's first
        # run (one batch of five seeds past a chunk, which goes apart after
        # its first iteration) draws on threads that run_steps joins, so
        # none is alive at the fork, and the workers must neither hang nor
        # change the outputs.
        cfg_path = write_run_config(tmp_path / "cfg.json", tmp_path, seeds=(0, 1, 2, 3, 4), max_iters=2)
        cfg = json.loads(cfg_path.read_text())
        cfg["sampler"]["n"] = CHUNK_DRAWS + 5
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        script = (
            "from sdfo import trust_region\n"
            "from sdfo.cli import run_experiment\n"
            "from sdfo.config import load_config\n"
            "trust_region._usable_cpus = lambda: 2\n"
            f"cfg = load_config({str(cfg_path)!r})\n"
            f"run_experiment(cfg, out_dir={str(out1)!r}, jobs=1)\n"
            "import threading\n"
            "assert not [t for t in threading.enumerate() if t.name.startswith('sdfo-draws')]\n"
            f"run_experiment(cfg, out_dir={str(out2)!r}, jobs=2)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        # Its own session, so that a hung child's forked workers go with it.
        child = subprocess.Popen([sys.executable, "-c", script], env=env, start_new_session=True)
        try:
            code = child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            pytest.fail("sdfo run --jobs 2 hung after a run in the same process had drawn on threads")
        assert code == 0
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

    # The secular solve's (B + lam I)**-3 overflows on the way, harmlessly.
    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    @pytest.mark.parametrize(("theta", "k"), [(0.5, 537), (4.0, 538)])
    def test_radius_down_to_the_float_range_stops_the_run(self, tmp_path, theta, k):
        # From the minimizer every step fails and halves delta, until
        # theta * delta**2 (theta = 0.5) or delta**2 (theta = 4) rounds to
        # zero.  Below delta = 1.7e-108 the secular solve's ||s||**3
        # underflows, which raised ZeroDivisionError (exit 1); with
        # theta = 4, delta**2 underflows while theta * delta**2 is still
        # positive, and the stencil's division by it exited 2.
        out = tmp_path / "out"
        cfg_path = write_run_config(tmp_path / "r.json", out, seeds=(0,), algorithm="trust_region")
        raw = json.loads(cfg_path.read_text())
        raw.update(
            problem={"name": "sphere", "dimension": 2}, noise={"kind": "none"}, x0=[0.0, 0.0],
            sampler={"kind": "fixed", "n": 1}, delta_floor=0,
        )
        raw["config"].update(
            delta_max=1.0, tau=0.5, tau_bar=1.0, theta=theta, max_iters=3000,
            hessian={"policy": "regression_clipped", "q": 0.5, "m": 10.0, "M": 10.0},
        )
        del raw["config"]["eps_f_hint"]
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path)]) == 0
        trace = read_trace_csv(out / "trust_region_sphere_seed0.csv")
        assert len(trace) == k
        assert (out / "trust_region_sphere_summary.csv").exists()

    @pytest.mark.parametrize(
        ("algorithm", "run"), [("direct_search", ds_run), ("trust_region", tr_run)],
        ids=["direct_search", "trust_region"],
    )
    def test_outputs_are_the_library_records_bytes(self, tmp_path, algorithm, run):
        # The CLI writes and summarizes plain rows; the library returns records.
        out = tmp_path / "out"
        cfg_path = write_run_config(tmp_path / "cfg.json", out, seeds=(0, 1, 2), algorithm=algorithm)
        assert main(["run", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        problem = get_problem("l1norm", 2)
        summaries = []
        for seed in cfg.seeds:
            _, records = run(
                cfg.algo, problem, cfg.noise, DirectionGenerator(2, QuasiRandomSphere()), cfg.x0,
                seed=seed, sampler=cfg.sampler.build(cfg.noise, default_k_f(cfg.algo)),
                delta_floor=cfg.delta_floor,
            )
            cli_trace = out / f"{algorithm}_l1norm_seed{seed}.csv"
            header = [line[2:] for line in cli_trace.read_text().splitlines() if line.startswith("# ")]
            write_trace_csv(tmp_path / "records.csv", records, dict(line.split("=", 1) for line in header))
            assert (tmp_path / "records.csv").read_bytes() == cli_trace.read_bytes()
            summaries.append(summarize(records, seed=seed, f_star=problem.optimum_value))
        cli_summary = out / f"{algorithm}_l1norm_summary.csv"
        header = [line[2:] for line in cli_summary.read_text().splitlines() if line.startswith("# ")]
        write_summary_csv(tmp_path / "summary.csv", summaries, dict(line.split("=", 1) for line in header))
        assert (tmp_path / "summary.csv").read_bytes() == cli_summary.read_bytes()

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
        # One set of 2000 pairs at n = 1 (delta 1) and one at n = 16 (delta 0.5).
        assert "# draws=68000" in lines

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

    def test_nan_stencil_curvature_exits_2(self, tmp_path, capsys, monkeypatch):
        # f is NaN for x[0] > 1.2, which the first stencil from x0 reaches.
        def nan_wall(x):
            return np.where(x[..., 0] > 1.2, np.nan, np.vecdot(x, x))

        monkeypatch.setitem(PROBLEMS, "nan_wall", (nan_wall, 0.0, 0.0, 1))
        cfg_path = write_run_config(tmp_path / "r.json", tmp_path / "out", algorithm="trust_region")
        raw = json.loads(cfg_path.read_text())
        raw["problem"]["name"] = "nan_wall"
        raw["x0"] = [1.0, 0.3]
        raw["config"]["hessian"] = {"policy": "regression_clipped", "q": 0.5, "m": 10.0, "M": 10.0}
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "finite" in err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 2

    @pytest.mark.parametrize("command", ["run", "audit"])
    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, command, where):
        # Used to exit 1 with a FileExistsError / NotADirectoryError traceback.
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker if where == "file" else blocker / "out"
        if command == "run":
            cfg = write_run_config(tmp_path / "cfg.json", tmp_path / "unused", seeds=(0,), max_iters=2)
        else:
            cfg = write_audit_config(tmp_path / "cfg.json", tmp_path / "unused")
        assert main([command, str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err
        assert blocker.read_text() == "not a directory\n"

    def test_negative_seed_in_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "cfg.json", out, seeds=(0, -4))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: seeds: seeds must be nonnegative, got -4\n"
        assert not out.exists()

    def test_negative_audit_seed_exits_2_naming_the_field(self, tmp_path, capsys):
        # numpy's own message named no field: "expected non-negative integer".
        out = tmp_path / "out"
        cfg_path = write_audit_config(tmp_path / "a.json", out)
        raw = json.loads(cfg_path.read_text())
        raw["audit"]["seed"] = -1
        cfg_path.write_text(json.dumps(raw))
        assert main(["audit", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: audit: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_condition_listed_twice_exits_2(self, tmp_path, capsys):
        # Used to exit 0, writing audit_a1_sphere.csv twice and the report
        # twice into the summary.
        out = tmp_path / "out"
        cfg_path = write_audit_config(tmp_path / "a.json", out, conditions=("a1", "a2", "a1"))
        assert main(["audit", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error: audit.conditions: each condition may be listed once, got ['a1', 'a2', 'a1']\n"
        )
        assert not out.exists()

    def test_negative_seed_from_offset_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "cfg.json", out, seeds=(3, 1, 7))
        assert main(["run", str(cfg), "--seed-offset", "-2"]) == 2
        assert capsys.readouterr().err == (
            "error: seed-offset: seed 1 shifted by -2 is -1; seeds must be nonnegative\n"
        )
        assert not out.exists()
        assert main(["run", str(cfg), "--seed-offset", "-1"]) == 0
        assert (out / "direct_search_l1norm_seed0.csv").exists()


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

    def test_huge_delta_takes_one_sample_and_rejects_the_variance_bound(self, tmp_path, capsys):
        # delta**4 is past the float range at delta = 1e100.
        raw = json.loads((ROOT / "tests" / "data" / "golden_audit.json").read_text())
        raw["audit"]["delta_grid"] = [1e100]
        cfg_path = tmp_path / "huge.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["audit", str(cfg_path), "--out", str(tmp_path / "all")]) == 2
        assert capsys.readouterr().err == "error: variance bound k_f^2 delta^4 at delta=1e+100 is not finite\n"
        raw["audit"]["conditions"] = ["a1"]
        cfg_path.write_text(json.dumps(raw))
        assert main(["audit", str(cfg_path), "--out", str(tmp_path / "a1")]) == 0
        assert " n=1 -> pass" in (tmp_path / "a1" / "audit_sphere_summary.txt").read_text()

    def test_underflowing_delta_power_exits_2(self, tmp_path, capsys):
        # delta**4 underflows to 0 at delta = 1e-100.
        raw = json.loads((ROOT / "tests" / "data" / "golden_audit.json").read_text())
        raw["audit"]["delta_grid"] = [1e-100]
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["audit", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: sample count at delta=1e-100 is not a finite number\n"

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
