"""Config parsing, validation messages and round-trip equality."""

import json
import math
import pickle
import re
from pathlib import Path

import pytest

from sdfo import required_samples
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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^seeds: seeds must be nonnegative, got -3$"):
            config_from_dict(ds_config_dict(seeds=[0, -3, 2]))

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


ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "configs").glob("*.json")) + sorted((ROOT / "tests" / "data").glob("*.json"))


class TestShippedConfigs:
    def test_shipped_configs_found(self):
        assert {p.name for p in SHIPPED} >= {"audit_gaussian.json", "golden_regression_d3.json"}

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_file_roundtrip(self, path, tmp_path):
        cfg = load_config(path)
        save_config(cfg, tmp_path / "again.json")
        assert load_config(tmp_path / "again.json") == cfg

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_config_pickles(self, path):
        cfg = load_config(path)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


def tr_config_dict():
    raw = ds_config_dict(algorithm="trust_region")
    raw["config"].update(delta_max=2.0, hessian={"policy": "zero"})
    return raw


DELETED = object()


def edited(builder, path, value):
    """``builder()`` with ``value`` set at the key path ``path`` (removed for ``DELETED``)."""
    raw = builder()
    block = raw
    for key in path[:-1]:
        block = block[key]
    if value is DELETED:
        del block[path[-1]]
    else:
        block[path[-1]] = value
    return raw


UNREAD_KEYS = [
    (tr_config_dict, ("delta_flor",), 0.05),
    (tr_config_dict, ("config", "max_iter"), 3),
    (tr_config_dict, ("config", "hessian", "q"), 0.5),
    (ds_config_dict, ("config", "hessian"), {"policy": "zero"}),
    (ds_config_dict, ("output", "directroy"), "elsewhere"),
    (ds_config_dict, ("output", "write_trace"), False),
    (ds_config_dict, ("output", "write_summary"), False),
    (ds_config_dict, ("noise", "scale"), 100.0),
    (ds_config_dict, ("problem", "dim"), 3),
    (ds_config_dict, ("audit",), audit_config_dict()["audit"]),
    (audit_config_dict, ("seeds",), [0]),
    (audit_config_dict, ("x0",), [0.0, 0.0]),
    (audit_config_dict, ("config",), ds_config_dict()["config"]),
    (audit_config_dict, ("audit", "spec"), {}),
    (audit_config_dict, ("audit", "p_grd"), [0.5]),
]


class TestUnknownKeys:
    @pytest.mark.parametrize(
        ("builder", "path", "value"), UNREAD_KEYS, ids=[".".join(case[1]) for case in UNREAD_KEYS]
    )
    def test_rejected_with_its_name(self, builder, path, value):
        raw = edited(builder, path, value)
        with pytest.raises(ConfigError, match=rf"^{re.escape('.'.join(path))}: unknown key"):
            config_from_dict(raw)

    def test_audit_block_reads_spec_and_settings_fields(self):
        raw = audit_config_dict()
        raw["audit"].update(h=3.0, alpha_grid=[4.0], seed=2, confidence=0.9, x=[0.1, 0.2])
        cfg = config_from_dict(raw)
        assert (cfg.audit.spec.h, cfg.audit.spec.seed, cfg.audit.x) == (3.0, 2, (0.1, 0.2))

    def test_hessian_policy_key_read(self):
        raw = tr_config_dict()
        raw["config"]["hessian"] = {"policy": "regression_clipped", "q": 0.5, "m": 1.0, "M": 2.0}
        assert config_from_dict(raw).algo.hessian_policy.M == 2.0


# Values a config file can carry that the parser refuses, with the whole message.
REJECTED_VALUES = [
    (ds_config_dict, ("algorithm",), "bogus", "algorithm: unknown algorithm 'bogus'"),
    (ds_config_dict, ("noise",), DELETED, "noise: missing required field"),
    (ds_config_dict, ("noise", "kind"), "bogus", "noise.kind: unknown kind 'bogus'"),
    (ds_config_dict, ("sampler", "kind"), "bogus", "sampler.kind: unknown kind 'bogus'"),
    (ds_config_dict, ("sampler",), {"kind": "variance"}, "sampler.k_f: variance sampler needs k_f > 0"),
    (ds_config_dict, ("sampler",), {"kind": "moment"}, "sampler.k_f: moment sampler needs k_f > 0"),
    (ds_config_dict, ("seeds",), [], "seeds: at least one seed is required"),
    (
        tr_config_dict, ("config", "hessian", "policy"), "bogus",
        "config.hessian.policy: unknown policy 'bogus'",
    ),
    (
        audit_config_dict, ("audit", "conditions"), ["a1", "bogus"],
        "audit.conditions: unknown condition 'bogus'",
    ),
    (
        audit_config_dict, ("audit", "conditions"), [],
        "audit.conditions: at least one condition is required",
    ),
]


class TestRejectedValues:
    @pytest.mark.parametrize(
        ("builder", "path", "value", "message"),
        REJECTED_VALUES,
        ids=[
            "algorithm", "noise-missing", "noise-kind", "sampler-kind", "variance-no-k_f",
            "moment-no-k_f", "seeds-empty", "hessian-policy", "conditions-unknown", "conditions-empty",
        ],
    )
    def test_full_message(self, builder, path, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(edited(builder, path, value))


class TestSamplerFields:
    @pytest.mark.parametrize(
        ("sampler", "key"),
        [
            ({"kind": "auto", "k_f": 123.0}, "k_f"),
            ({"kind": "auto", "n": 4}, "n"),
            ({"kind": "fixed", "n": 4, "k_f": 1.0}, "k_f"),
            ({"kind": "fixed", "n": 4, "eps_q": 1.0}, "eps_q"),
            ({"kind": "variance", "k_f": 1.0, "n": 4}, "n"),
            ({"kind": "variance", "k_f": 1.0, "eps_q": 1.0}, "eps_q"),
            ({"kind": "moment", "k_f": 1.0, "n": 4}, "n"),
        ],
    )
    def test_field_its_kind_does_not_read(self, sampler, key):
        with pytest.raises(ConfigError, match=rf"^sampler\.{key}: not read by the {sampler['kind']}"):
            config_from_dict(ds_config_dict(sampler=sampler))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "neg"])
    @pytest.mark.parametrize("key", ["k_f", "eps_q"])
    def test_constants_positive_and_finite(self, key, bad):
        sampler = {"kind": "moment", "k_f": 1.0, key: bad}
        with pytest.raises(ConfigError, match=rf"^sampler\.{key}: must be positive and finite"):
            config_from_dict(ds_config_dict(sampler=sampler))

    def test_infinite_k_f_no_longer_means_one_sample(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(ds_config_dict(sampler={"kind": "variance", "k_f": 1.0})).replace(
            '"k_f": 1.0', '"k_f": Infinity'
        ))
        with pytest.raises(ConfigError, match="sampler.k_f"):
            load_config(path)

    def test_build_never_returns_none(self):
        cfg = config_from_dict(ds_config_dict(sampler={"kind": "auto"}))
        policy = cfg.sampler.build(cfg.noise, 0.5)
        expected = required_samples(cfg.noise.declared_variance, 0.5, 0.25)
        assert policy is not None and policy(0.25) == expected

    def test_build_names_the_sampler_block(self):
        raw = ds_config_dict(sampler={"kind": "moment", "k_f": 1.0})
        cfg = config_from_dict(raw)  # Gaussian noise declares no moment
        with pytest.raises(ConfigError, match="^sampler: moment sampler needs noise with a declared moment"):
            cfg.sampler.build(cfg.noise, 1.0)
