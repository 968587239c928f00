"""Config values of the wrong type, bad stepsize floors and non-finite audit points."""

import json
import math

import pytest

from sdfo import (
    NoiseModel,
    StochasticOracle,
    TailAuditSpec,
    audit_a1,
    fixed_sample_policy,
    get_problem,
    sampler_estimator,
)
from sdfo.cli import main
from sdfo.config import ConfigError, config_from_dict, load_config


def run_config(**overrides):
    cfg = {
        "schema_version": 1,
        "algorithm": "trust_region",
        "problem": {"name": "l1norm", "dimension": 2},
        "noise": {"kind": "gaussian", "variance": 0.01},
        "seeds": [0],
        "x0": [2.0, 2.0],
        "config": {
            "delta0": 1.0,
            "delta_max": 2.0,
            "tau": 0.1,
            "tau_bar": 1.1,
            "max_iters": 5,
            "theta": 0.25,
            "hessian": {"policy": "zero"},
        },
        "sampler": {"kind": "fixed", "n": 5},
    }
    for key, value in overrides.items():
        if key in cfg["config"]:
            cfg["config"][key] = value
        else:
            cfg[key] = value
    return cfg


def audit_config(**audit_overrides):
    audit = {"conditions": ["a1"], "trials": 2000, "direction": [1.0, 0.0]}
    audit.update(audit_overrides)
    return {
        "schema_version": 1,
        "algorithm": "audit",
        "problem": {"name": "sphere", "dimension": 2},
        "noise": {"kind": "gaussian", "variance": 1.0},
        "sampler": {"kind": "variance", "k_f": 1.0},
        "audit": audit,
    }


@pytest.mark.parametrize(
    ("overrides", "field"),
    [
        ({"hessian": "zero"}, "config.hessian"),
        ({"sampler": "fixed"}, "sampler"),
        ({"max_iters": 2.5}, "config.max_iters"),
        ({"max_iters": "3"}, "config.max_iters"),
        ({"delta0": "1"}, "config.delta0"),
        ({"seeds": ["a"]}, "seeds"),
        ({"max_iters": True}, "config.max_iters"),
        ({"x0": "2,2"}, "x0"),
        ({"noise": {"kind": "gaussian", "variance": None}}, "noise.variance"),
        ({"output": []}, "output"),
        ({"problem": {"name": "l1norm", "dimension": "2"}}, "problem.dimension"),
    ],
    ids=[
        "hessian-str", "sampler-str", "max_iters-float", "max_iters-str", "delta0-str",
        "seeds-str", "max_iters-bool", "x0-str", "variance-null", "output-list",
        "dimension-str",
    ],
)
def test_wrong_type_exits_2_naming_the_field(tmp_path, capsys, overrides, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(run_config(**overrides)))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: expected ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("overrides", "field"),
    [
        ({"trials": 2000.5}, "audit.trials"),
        ({"conditions": "a1"}, "audit.conditions"),
        ({"p_grid": [0.5, "0.1"]}, "audit.p_grid"),
        ({"direction": None}, "audit.direction"),
    ],
    ids=["trials-float", "conditions-str", "p_grid-str", "direction-null"],
)
def test_audit_block_types_checked(overrides, field):
    with pytest.raises(ConfigError, match=f"^{field}: expected "):
        config_from_dict(audit_config(**overrides))


@pytest.mark.parametrize("field", ["x", "direction"])
def test_non_finite_audit_point_rejected(tmp_path, field):
    # A NaN point or direction made every comparison false, so the audit
    # reported no exceedance and passed.
    path = tmp_path / "audit.json"
    text = json.dumps(audit_config(**{field: [0.5, 0.5]}))
    path.write_text(text.replace("[0.5, 0.5]", "[NaN, 0.0]"))
    with pytest.raises(ConfigError, match="entries must be finite"):
        load_config(path)


def test_nan_direction_is_not_a_unit_vector():
    oracle = StochasticOracle(get_problem("sphere", 2), NoiseModel.gaussian(1.0))
    spec = TailAuditSpec(trials=1000, p_grid=(0.5,), delta_grid=(1.0,))
    with pytest.raises(ValueError, match="unit vector"):
        audit_a1(oracle, sampler_estimator(fixed_sample_policy(1)), (0.5, 0.5), (math.nan, 0.0), spec)


def test_integers_accepted_for_float_fields():
    cfg = config_from_dict(run_config(delta0=1, theta=1, x0=[2, 2]))
    assert cfg.algo.delta0 == 1.0 and isinstance(cfg.algo.delta0, float)
    assert cfg.x0 == (2.0, 2.0)


@pytest.mark.parametrize("token", ["-1", "-1e-9", "NaN", "Infinity"])
def test_bad_delta_floor_rejected(tmp_path, token):
    path = tmp_path / "cfg.json"
    text = json.dumps(run_config(delta_floor=0.5))
    text = text.replace('"delta_floor": 0.5', f'"delta_floor": {token}')
    path.write_text(text)
    with pytest.raises(ConfigError, match="delta_floor: must be finite and nonnegative"):
        load_config(path)


def test_zero_delta_floor_accepted():
    assert config_from_dict(run_config(delta_floor=0)).delta_floor == 0.0

