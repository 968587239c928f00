"""Experiment configuration: JSON parsing, validation and round-trip."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .direct_search import DirectSearchConfig
from .oracle import (
    NoiseModel,
    SamplePolicy,
    fixed_sample_policy,
    moment_sample_policy,
    variance_sample_policy,
)
from .problems import get_problem
from .tail_audit import TailAuditSpec
from .trust_region import RegressionClipped, TrustRegionConfig, ZeroHessian

SCHEMA_VERSION = 1
ALGORITHMS = ("direct_search", "trust_region", "audit")
AUDIT_CONDITIONS = ("a1", "a2", "a2h", "variance")


class ConfigError(ValueError):
    """Configuration failed to parse or validate; message names the field."""


@dataclass(frozen=True)
class SamplerSpec:
    """Declarative sample-count policy; ``auto`` follows the noise statistics."""

    kind: str = "auto"
    n: int | None = None
    k_f: float | None = None
    eps_q: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("auto", "fixed", "variance", "moment"):
            raise ConfigError(f"sampler.kind: unknown kind {self.kind!r}")
        if self.kind == "fixed" and (self.n is None or self.n < 1):
            raise ConfigError("sampler.n: fixed sampler needs n >= 1")
        if self.kind in ("variance", "moment") and (self.k_f is None or self.k_f <= 0):
            raise ConfigError(f"sampler.k_f: {self.kind} sampler needs k_f > 0")

    def build(self, noise: NoiseModel) -> SamplePolicy | None:
        if self.kind == "auto":
            return None  # let the run derive the default from its config
        if self.kind == "fixed":
            return fixed_sample_policy(self.n)
        if self.kind == "variance":
            if noise.declared_variance is None:
                raise ConfigError("sampler: variance sampler needs noise with a declared variance")
            return variance_sample_policy(noise.declared_variance, self.k_f)
        if noise.declared_moment is None:
            raise ConfigError("sampler: moment sampler needs noise with a declared moment")
        r, bound = noise.declared_moment
        eps_q = self.eps_q if self.eps_q is not None else 4.0 * self.k_f**2
        return moment_sample_policy(bound, r, 1.0 + 2.0 / r, eps_q)


@dataclass(frozen=True)
class AuditSettings:
    conditions: tuple[str, ...]
    spec: TailAuditSpec
    x: tuple[float, ...]
    direction: tuple[float, ...]
    k_f: float = 1.0

    def __post_init__(self) -> None:
        for cond in self.conditions:
            if cond not in AUDIT_CONDITIONS:
                raise ConfigError(f"audit.conditions: unknown condition {cond!r}")
        if not self.conditions:
            raise ConfigError("audit.conditions: at least one condition is required")
        if self.k_f <= 0:
            raise ConfigError("audit.k_f: must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int
    algorithm: str
    problem: str
    dimension: int
    noise: NoiseModel
    seeds: tuple[int, ...]
    out_dir: str
    x0: tuple[float, ...] | None = None
    algo: DirectSearchConfig | TrustRegionConfig | None = None
    sampler: SamplerSpec = SamplerSpec()
    delta_floor: float = 1e-8
    write_trace: bool = True
    write_summary: bool = True
    audit: AuditSettings | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: unknown algorithm {self.algorithm!r}")
        if self.algorithm != "audit":
            if not self.seeds:
                raise ConfigError("seeds: at least one seed is required")
            if len(set(self.seeds)) != len(self.seeds):
                raise ConfigError("seeds: seeds must be distinct")
            if self.x0 is None:
                raise ConfigError("x0: a start point is required for optimizer runs")
            if len(self.x0) != self.dimension:
                raise ConfigError("x0: length does not match problem dimension")
            if not all(math.isfinite(v) for v in self.x0):
                raise ConfigError(f"x0: entries must be finite, got {list(self.x0)}")
            if self.algo is None:
                raise ConfigError("config: missing algorithm parameter block")
        else:
            if self.audit is None:
                raise ConfigError("audit: audit block is required for algorithm=audit")
        # Resolves the registry entry and validates the dimension.
        try:
            get_problem(self.problem, self.dimension)
        except ValueError as exc:
            raise ConfigError(f"problem: {exc}") from None


# --- dict <-> config ------------------------------------------------------


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}{key}: missing required field")
    return mapping[key]


def _noise_from_dict(raw: dict) -> NoiseModel:
    kind = _require(raw, "kind", "noise.")
    try:
        if kind == "none":
            return NoiseModel.none()
        if kind == "gaussian":
            return NoiseModel.gaussian(_require(raw, "variance", "noise."))
        if kind == "student_t":
            return NoiseModel.student_t(_require(raw, "df", "noise."), raw.get("scale", 1.0))
        if kind == "pareto_symmetric":
            return NoiseModel.pareto_symmetric(_require(raw, "r", "noise."), raw.get("scale", 1.0))
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from None
    raise ConfigError(f"noise.kind: unknown kind {kind!r}")


def _noise_to_dict(noise: NoiseModel) -> dict:
    if noise.kind == "none":
        return {"kind": "none"}
    if noise.kind == "gaussian":
        return {"kind": "gaussian", "variance": noise.declared_variance}
    if noise.kind == "student_t":
        return {"kind": "student_t", "df": noise.df, "scale": noise.scale}
    return {"kind": "pareto_symmetric", "r": noise.tail_index, "scale": noise.scale}


def _algo_from_dict(algorithm: str, raw: dict) -> DirectSearchConfig | TrustRegionConfig:
    try:
        if algorithm == "direct_search":
            return DirectSearchConfig(
                delta0=_require(raw, "delta0", "config."),
                tau=_require(raw, "tau", "config."),
                tau_bar=_require(raw, "tau_bar", "config."),
                max_iters=_require(raw, "max_iters", "config."),
                theta=raw.get("theta"),
                eps_f_hint=raw.get("eps_f_hint"),
            )
        hessian = raw.get("hessian", {"policy": "zero"})
        policy_name = hessian.get("policy", "zero")
        if policy_name == "zero":
            policy = ZeroHessian()
        elif policy_name == "regression_clipped":
            policy = RegressionClipped(
                q=_require(hessian, "q", "config.hessian."),
                m=_require(hessian, "m", "config.hessian."),
                M=_require(hessian, "M", "config.hessian."),
            )
        else:
            raise ConfigError(f"config.hessian.policy: unknown policy {policy_name!r}")
        return TrustRegionConfig(
            delta0=_require(raw, "delta0", "config."),
            delta_max=_require(raw, "delta_max", "config."),
            tau=_require(raw, "tau", "config."),
            tau_bar=_require(raw, "tau_bar", "config."),
            max_iters=_require(raw, "max_iters", "config."),
            hessian_policy=policy,
            theta=raw.get("theta"),
            eps_f_hint=raw.get("eps_f_hint"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from None


def _algo_to_dict(algo) -> dict:
    if isinstance(algo, DirectSearchConfig):
        out = {
            "delta0": algo.delta0,
            "tau": algo.tau,
            "tau_bar": algo.tau_bar,
            "max_iters": algo.max_iters,
            "theta": algo.theta,
        }
        if algo.eps_f_hint is not None:
            out["eps_f_hint"] = algo.eps_f_hint
        return out
    out = {
        "delta0": algo.delta0,
        "delta_max": algo.delta_max,
        "tau": algo.tau,
        "tau_bar": algo.tau_bar,
        "max_iters": algo.max_iters,
        "theta": algo.theta,
    }
    if algo.eps_f_hint is not None:
        out["eps_f_hint"] = algo.eps_f_hint
    if isinstance(algo.hessian_policy, ZeroHessian):
        out["hessian"] = {"policy": "zero"}
    else:
        pol = algo.hessian_policy
        out["hessian"] = {"policy": "regression_clipped", "q": pol.q, "m": pol.m, "M": pol.M}
    return out


def _audit_from_dict(raw: dict, dimension: int) -> AuditSettings:
    try:
        spec = TailAuditSpec(
            eps_f=raw.get("eps_f", 1.0),
            eps_q=raw.get("eps_q", 1.0),
            p_grid=tuple(raw.get("p_grid", (0.5, 0.25, 0.1, 0.05))),
            delta_grid=tuple(raw.get("delta_grid", (1.0, 0.5, 0.25))),
            trials=raw.get("trials", 100_000),
            confidence=raw.get("confidence", 0.99),
            h=raw.get("h", 2.0),
            alpha_grid=tuple(raw["alpha_grid"]) if "alpha_grid" in raw else None,
            seed=raw.get("seed", 0),
        )
    except ValueError as exc:
        raise ConfigError(f"audit: {exc}") from None
    x = tuple(float(v) for v in raw.get("x", [0.0] * dimension))
    direction = tuple(float(v) for v in _require(raw, "direction", "audit."))
    return AuditSettings(
        conditions=tuple(_require(raw, "conditions", "audit.")),
        spec=spec,
        x=x,
        direction=direction,
        k_f=raw.get("k_f", 1.0),
    )


def _audit_to_dict(audit: AuditSettings) -> dict:
    spec = audit.spec
    out = {
        "conditions": list(audit.conditions),
        "eps_f": spec.eps_f,
        "eps_q": spec.eps_q,
        "p_grid": list(spec.p_grid),
        "delta_grid": list(spec.delta_grid),
        "trials": spec.trials,
        "confidence": spec.confidence,
        "h": spec.h,
        "seed": spec.seed,
        "x": list(audit.x),
        "direction": list(audit.direction),
        "k_f": audit.k_f,
    }
    if spec.alpha_grid is not None:
        out["alpha_grid"] = list(spec.alpha_grid)
    return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    algorithm = _require(raw, "algorithm", "")
    problem_block = _require(raw, "problem", "")
    if not isinstance(problem_block, dict):
        raise ConfigError("problem: expected an object with name and dimension")
    name = _require(problem_block, "name", "problem.")
    dimension = int(_require(problem_block, "dimension", "problem."))
    noise = _noise_from_dict(_require(raw, "noise", ""))
    sampler_raw = raw.get("sampler", {"kind": "auto"})
    sampler = SamplerSpec(
        kind=sampler_raw.get("kind", "auto"),
        n=sampler_raw.get("n"),
        k_f=sampler_raw.get("k_f"),
        eps_q=sampler_raw.get("eps_q"),
    )
    output = raw.get("output", {})
    algo = None
    audit = None
    x0 = None
    seeds: tuple[int, ...] = ()
    if algorithm == "audit":
        audit = _audit_from_dict(_require(raw, "audit", ""), dimension)
    else:
        seeds = tuple(int(s) for s in _require(raw, "seeds", ""))
        x0 = tuple(float(v) for v in _require(raw, "x0", ""))
        algo = _algo_from_dict(algorithm, _require(raw, "config", ""))
    return ExperimentConfig(
        schema_version=SCHEMA_VERSION,
        algorithm=algorithm,
        problem=name,
        dimension=dimension,
        noise=noise,
        seeds=seeds,
        out_dir=output.get("directory", "out"),
        x0=x0,
        algo=algo,
        sampler=sampler,
        delta_floor=raw.get("delta_floor", 1e-8),
        write_trace=output.get("write_trace", True),
        write_summary=output.get("write_summary", True),
        audit=audit,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out: dict = {
        "schema_version": cfg.schema_version,
        "algorithm": cfg.algorithm,
        "problem": {"name": cfg.problem, "dimension": cfg.dimension},
        "noise": _noise_to_dict(cfg.noise),
        "sampler": {
            k: v
            for k, v in (
                ("kind", cfg.sampler.kind),
                ("n", cfg.sampler.n),
                ("k_f", cfg.sampler.k_f),
                ("eps_q", cfg.sampler.eps_q),
            )
            if v is not None
        },
        "delta_floor": cfg.delta_floor,
        "output": {
            "directory": cfg.out_dir,
            "write_trace": cfg.write_trace,
            "write_summary": cfg.write_summary,
        },
    }
    if cfg.algorithm == "audit":
        out["audit"] = _audit_to_dict(cfg.audit)
    else:
        out["seeds"] = list(cfg.seeds)
        out["x0"] = list(cfg.x0)
        out["config"] = _algo_to_dict(cfg.algo)
    return out


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file; errors carry line numbers."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return config_from_dict(raw)


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
