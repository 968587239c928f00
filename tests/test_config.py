"""Config parsing, validation messages and round-trip equality."""

import json

import pytest

from sdfo.config import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)


def ds_config_dict(**overrides):
    raw = {
        "schema_version": 1,
        "algorithm": "direct_search",
        "problem": {"name": "l1norm", "dimension": 2},
        "noise": {"kind": "gaussian", "variance": 0.01},
        "seeds": [0, 1, 2],
        "x0": [2.0, 2.0],
        "config": {
            "delta0": 1.0,
            "tau": 0.1,
            "tau_bar": 1.1,
            "max_iters": 100,
            "theta": 0.25,
            "eps_f_hint": 0.01,
        },
        "sampler": {"kind": "fixed", "n": 25},
        "output": {"directory": "out"},
    }
    raw.update(overrides)
    return raw


def audit_config_dict(**overrides):
    raw = {
        "schema_version": 1,
        "algorithm": "audit",
        "problem": {"name": "sphere", "dimension": 2},
        "noise": {"kind": "gaussian", "variance": 1.0},
        "sampler": {"kind": "variance", "k_f": 1.0},
        "audit": {
            "conditions": ["a1", "a2"],
            "eps_f": 2.0,
            "eps_q": 4.0,
            "trials": 2000,
            "direction": [1.0, 0.0],
            "k_f": 1.0,
        },
        "output": {"directory": "out"},
    }
    raw.update(overrides)
    return raw


class TestParsing:
    def test_valid_run_config(self):
        cfg = config_from_dict(ds_config_dict())
        assert cfg.algorithm == "direct_search"
        assert cfg.seeds == (0, 1, 2)
        assert cfg.algo.theta == 0.25

    def test_valid_audit_config(self):
        cfg = config_from_dict(audit_config_dict())
        assert cfg.audit.conditions == ("a1", "a2")
        assert cfg.audit.spec.trials == 2000

    def test_schema_version_enforced(self):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(ds_config_dict(schema_version=2))

    def test_unknown_problem_names_field_and_registry(self):
        raw = ds_config_dict(problem={"name": "nope", "dimension": 2})
        with pytest.raises(ConfigError, match="nope.*l1norm"):
            config_from_dict(raw)

    def test_missing_field_named(self):
        raw = ds_config_dict()
        del raw["config"]["delta0"]
        with pytest.raises(ConfigError, match="config.delta0"):
            config_from_dict(raw)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            config_from_dict(ds_config_dict(seeds=[1, 1]))

    def test_x0_length_checked(self):
        with pytest.raises(ConfigError, match="x0"):
            config_from_dict(ds_config_dict(x0=[1.0]))

    def test_audit_trials_floor(self):
        raw = audit_config_dict()
        raw["audit"]["trials"] = 10
        with pytest.raises(ConfigError, match="trials"):
            config_from_dict(raw)

    def test_invalid_tau_reported(self):
        raw = ds_config_dict()
        raw["config"]["tau"] = 2.0
        with pytest.raises(ConfigError, match="tau"):
            config_from_dict(raw)

    def test_sampler_validation(self):
        with pytest.raises(ConfigError, match="sampler"):
            config_from_dict(ds_config_dict(sampler={"kind": "fixed"}))

    def test_trust_region_hessian_block(self):
        raw = ds_config_dict(algorithm="trust_region")
        raw["config"]["delta_max"] = 2.0
        raw["config"]["hessian"] = {"policy": "regression_clipped", "q": 0.5, "m": 10, "M": 10}
        cfg = config_from_dict(raw)
        assert cfg.algo.hessian_policy.q == 0.5


class TestNonFiniteValues:
    # json.loads reads NaN and Infinity, so a config file can carry them.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_audit_k_f(self, bad):
        raw = audit_config_dict()
        raw["audit"]["k_f"] = bad
        with pytest.raises(ConfigError, match="audit.k_f: must be positive and finite"):
            config_from_dict(raw)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["eps_f", "eps_q", "h"])
    def test_audit_spec_scalars(self, field, bad):
        raw = audit_config_dict()
        raw["audit"][field] = bad
        with pytest.raises(ConfigError, match=f"audit: .*{field}"):
            config_from_dict(raw)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_noise_variance(self, bad):
        raw = audit_config_dict(noise={"kind": "gaussian", "variance": bad})
        with pytest.raises(ConfigError, match="noise: declared_variance must be positive"):
            config_from_dict(raw)

    def test_noise_scale_overflow(self):
        raw = ds_config_dict(noise={"kind": "pareto_symmetric", "r": 2.0, "scale": 1e300})
        with pytest.raises(ConfigError, match="noise: "):
            config_from_dict(raw)

    @pytest.mark.parametrize("field", ["m", "M"])
    def test_regression_clipped_nan(self, field):
        raw = ds_config_dict(algorithm="trust_region")
        hessian = {"policy": "regression_clipped", "q": 0.5, "m": 1.0, "M": 1.0}
        hessian[field] = float("nan")
        raw["config"].update(delta_max=2.0, hessian=hessian)
        with pytest.raises(ConfigError, match="config: m and M must be positive and finite"):
            config_from_dict(raw)


class TestRoundTrip:
    @pytest.mark.parametrize("builder", [ds_config_dict, audit_config_dict])
    def test_dict_roundtrip_is_identity(self, builder):
        cfg = config_from_dict(builder())
        again = config_from_dict(config_to_dict(cfg))
        assert cfg == again

    def test_file_roundtrip(self, tmp_path):
        cfg = config_from_dict(ds_config_dict())
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_trust_region_roundtrip(self):
        raw = ds_config_dict(algorithm="trust_region")
        raw["config"]["delta_max"] = 2.0
        raw["config"]["hessian"] = {"policy": "zero"}
        cfg = config_from_dict(raw)
        assert config_from_dict(config_to_dict(cfg)) == cfg


class TestFileErrors:
    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
        with pytest.raises(ConfigError, match=r":3:"):
            load_config(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_x0_rejected(self, tmp_path, token):
        path = tmp_path / "x0.json"
        text = json.dumps(ds_config_dict(x0=[1.0, 0.0])).replace("[1.0, 0.0]", f"[1.0, {token}]")
        path.write_text(text)
        with pytest.raises(ConfigError, match="x0: entries must be finite"):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ConfigError):
            load_config(path)
