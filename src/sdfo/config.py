"""Experiment configuration: JSON parsing, validation and round-trip."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

from .direct_search import DirectSearchConfig
from .oracle import SAMPLER_FIELDS, NoiseModel, SamplePolicy, sample_policy
from .problems import get_problem
from .tail_audit import TailAuditSpec, check_conditions
from .trust_region import DEFAULT_DELTA_FLOOR, RegressionClipped, TrustRegionConfig, ZeroHessian

SCHEMA_VERSION = 1
ALGORITHMS = ("direct_search", "trust_region", "audit")
ALGORITHM_CONFIGS = {"direct_search": DirectSearchConfig, "trust_region": TrustRegionConfig}
# Top-level keys of every config; a run adds seeds, x0 and config, an audit its audit block.
TOP_KEYS = ("schema_version", "algorithm", "problem", "noise", "sampler", "delta_floor", "output")
HESSIAN_POLICIES = {"zero": ZeroHessian, "regression_clipped": RegressionClipped}
# Noise kind -> (constructor, {config key: NoiseModel attribute}); "scale" is optional.
NOISE_PARAMS = {
    "none": (NoiseModel.none, {}),
    "gaussian": (NoiseModel.gaussian, {"variance": "declared_variance"}),
    "student_t": (NoiseModel.student_t, {"df": "df", "scale": "scale"}),
    "pareto_symmetric": (NoiseModel.pareto_symmetric, {"r": "tail_index", "scale": "scale"}),
}


class ConfigError(ValueError):
    """Configuration failed to parse or validate; message names the field."""


@dataclass(frozen=True)
class SamplerSpec:
    """Declarative ``oracle.sample_policy``; a kind takes only the fields it reads."""

    kind: str = "auto"
    n: int | None = None
    k_f: float | None = None
    eps_q: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in SAMPLER_FIELDS:
            raise ConfigError(f"sampler.kind: unknown kind {self.kind!r}")
        for name in ("n", "k_f", "eps_q"):
            value = getattr(self, name)
            if value is not None and name not in SAMPLER_FIELDS[self.kind]:
                raise ConfigError(f"sampler.{name}: not read by the {self.kind} sampler")
            if value is not None and name != "n" and not 0.0 < value < math.inf:
                raise ConfigError(f"sampler.{name}: must be positive and finite, got {value}")
        if self.kind == "fixed" and (self.n is None or self.n < 1):
            raise ConfigError("sampler.n: fixed sampler needs n >= 1")
        if "k_f" in SAMPLER_FIELDS[self.kind] and self.k_f is None:
            raise ConfigError(f"sampler.k_f: {self.kind} sampler needs k_f > 0")

    def build(self, noise: NoiseModel, k_f: float, eps_q: float | None = None) -> SamplePolicy:
        """The policy for ``noise``; ``auto`` takes the caller's ``k_f`` and ``eps_q``."""
        if self.kind != "auto":
            k_f, eps_q = self.k_f, self.eps_q
        try:
            return sample_policy(noise, self.kind, self.n, k_f, eps_q)
        except ValueError as exc:
            raise ConfigError(f"sampler: {exc}") from None


@dataclass(frozen=True)
class AuditSettings:
    conditions: tuple[str, ...]
    spec: TailAuditSpec
    x: tuple[float, ...]
    direction: tuple[float, ...]
    k_f: float = 1.0

    def __post_init__(self) -> None:
        try:
            check_conditions(self.conditions)
        except ValueError as exc:
            raise ConfigError(f"audit.conditions: {exc}") from None
        if not 0.0 < self.k_f < math.inf:
            raise ConfigError(f"audit.k_f: must be positive and finite, got {self.k_f}")
        if not all(math.isfinite(v) for v in self.x + self.direction):
            raise ConfigError("audit.x, audit.direction: entries must be finite")


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
    delta_floor: float = DEFAULT_DELTA_FLOOR
    audit: AuditSettings | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: unknown algorithm {self.algorithm!r}")
        if not (math.isfinite(self.delta_floor) and self.delta_floor >= 0.0):
            raise ConfigError(
                f"delta_floor: must be finite and nonnegative, got {self.delta_floor}"
            )
        if self.algorithm != "audit":
            if not self.seeds:
                raise ConfigError("seeds: at least one seed is required")
            if len(set(self.seeds)) != len(self.seeds):
                raise ConfigError("seeds: seeds must be distinct")
            if min(self.seeds) < 0:
                raise ConfigError(f"seeds: seeds must be nonnegative, got {min(self.seeds)}")
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


_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", bool: "true or false"}
_type_hints = functools.cache(typing.get_type_hints)  # evaluating annotations is slow


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}{key}: missing required field")
    return mapping[key]


def _object(value, where: str, known=None) -> dict:
    """``value`` checked to be an object; with ``known``, one holding no other key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    unknown = [key for key in value if known is not None and key not in known]
    if unknown:
        where = f"{where}.{unknown[0]}" if where else unknown[0]
        raise ConfigError(f"{where}: unknown key; expected one of {', '.join(sorted(known))}")
    return value


def _names(cls) -> set[str]:
    return {field.name for field in dataclasses.fields(cls)}


def _typed(value, hint, where: str):
    """``value`` checked against the annotation ``hint``: ``float``, ``int``,
    ``str``, ``bool``, ``tuple[X, ...]`` or ``X | None``.  Numbers become floats."""
    if hint not in _TYPE_NAMES:
        args = typing.get_args(hint)
        if type(None) in args:
            return None if value is None else _typed(value, args[0], where)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_typed(v, args[0], where) for v in value)
    wanted = (int, float) if hint is float else hint
    if isinstance(value, wanted) and (hint is bool or not isinstance(value, bool)):
        try:
            return float(value) if hint is float else value
        except OverflowError:
            pass
    raise ConfigError(f"{where}: expected {_TYPE_NAMES[hint]}, got {value!r}")


def _build(cls, raw, block: str, extra=(), **given):
    """The dataclass ``cls`` read field by field from the ``block`` object.

    Each field is read under its own name and checked against its
    annotation; a field without a default is required.  Fields in ``given``
    are passed through.  A key that is neither a field read here nor in
    ``extra`` is an error.  A ValueError from the class's own validation
    becomes a ConfigError naming the top-level block.
    """
    raw = _object(raw, block, (_names(cls) - set(given)) | set(extra))
    hints = _type_hints(cls)
    kwargs = dict(given)
    for field in dataclasses.fields(cls):
        if field.name in given:
            continue
        if field.name in raw:
            kwargs[field.name] = _typed(raw[field.name], hints[field.name], f"{block}.{field.name}")
        elif field.default is dataclasses.MISSING:
            raise ConfigError(f"{block}.{field.name}: missing required field")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{block.split('.')[0]}: {exc}") from None


def _fields_to_dict(obj, *skip: str) -> dict:
    """The fields of ``obj`` that are set, tuples as lists, except ``skip``."""
    out = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if field.name not in skip and value is not None:
            out[field.name] = list(value) if isinstance(value, tuple) else value
    return out


def _noise_from_dict(raw: dict) -> NoiseModel:
    kind = _typed(_require(raw, "kind", "noise."), str, "noise.kind")
    if kind not in NOISE_PARAMS:
        raise ConfigError(f"noise.kind: unknown kind {kind!r}")
    make, params = NOISE_PARAMS[kind]
    _object(raw, "noise", ("kind", *params))
    kwargs = {
        key: _typed(_require(raw, key, "noise."), float, f"noise.{key}")
        for key in params
        if key in raw or key != "scale"
    }
    try:
        return make(**kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"noise: {exc}") from None


def _noise_to_dict(noise: NoiseModel) -> dict:
    _, params = NOISE_PARAMS[noise.kind]
    return {"kind": noise.kind, **{key: getattr(noise, attr) for key, attr in params.items()}}


def _algo_from_dict(algorithm: str, raw) -> DirectSearchConfig | TrustRegionConfig:
    given, extra = {}, ()
    if algorithm == "trust_region":
        hessian = _object(_object(raw, "config").get("hessian", {}), "config.hessian")
        name = _typed(hessian.get("policy", "zero"), str, "config.hessian.policy")
        if name not in HESSIAN_POLICIES:
            raise ConfigError(f"config.hessian.policy: unknown policy {name!r}")
        given["hessian_policy"] = _build(HESSIAN_POLICIES[name], hessian, "config.hessian", ("policy",))
        extra = ("hessian",)
    return _build(ALGORITHM_CONFIGS[algorithm], raw, "config", extra, **given)


def _algo_to_dict(algo) -> dict:
    out = _fields_to_dict(algo, "hessian_policy")
    if isinstance(algo, TrustRegionConfig):
        policy = algo.hessian_policy
        name = next(k for k, v in HESSIAN_POLICIES.items() if isinstance(policy, v))
        out["hessian"] = {"policy": name, **_fields_to_dict(policy)}
    return out


def _audit_from_dict(raw, dimension: int) -> AuditSettings:
    keys = (_names(TailAuditSpec) | _names(AuditSettings)) - {"spec"}
    spec = _build(TailAuditSpec, raw, "audit", keys)
    raw = {"x": [0.0] * dimension, **raw}
    return _build(AuditSettings, raw, "audit", keys, spec=spec)


def _audit_to_dict(audit: AuditSettings) -> dict:
    return {**_fields_to_dict(audit.spec), **_fields_to_dict(audit, "spec")}


def config_from_dict(raw: dict) -> ExperimentConfig:
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    algorithm = _require(raw, "algorithm", "")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm: unknown algorithm {algorithm!r}")
    _object(raw, "", TOP_KEYS + (("audit",) if algorithm == "audit" else ("seeds", "x0", "config")))
    problem_block = _object(_require(raw, "problem", ""), "problem", ("name", "dimension"))
    name = _typed(_require(problem_block, "name", "problem."), str, "problem.name")
    dimension = _typed(_require(problem_block, "dimension", "problem."), int, "problem.dimension")
    noise = _noise_from_dict(_object(_require(raw, "noise", ""), "noise"))
    sampler = _build(SamplerSpec, raw.get("sampler", {}), "sampler")
    output = _object(raw.get("output", {}), "output", ("directory",))
    algo = None
    audit = None
    x0 = None
    seeds: tuple[int, ...] = ()
    if algorithm == "audit":
        audit = _audit_from_dict(_require(raw, "audit", ""), dimension)
    else:
        seeds = _typed(_require(raw, "seeds", ""), tuple[int, ...], "seeds")
        x0 = _typed(_require(raw, "x0", ""), tuple[float, ...], "x0")
        algo = _algo_from_dict(algorithm, _require(raw, "config", ""))
    return ExperimentConfig(
        schema_version=SCHEMA_VERSION,
        algorithm=algorithm,
        problem=name,
        dimension=dimension,
        noise=noise,
        seeds=seeds,
        out_dir=_typed(output.get("directory", "out"), str, "output.directory"),
        x0=x0,
        algo=algo,
        sampler=sampler,
        delta_floor=_typed(raw.get("delta_floor", DEFAULT_DELTA_FLOOR), float, "delta_floor"),
        audit=audit,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out: dict = {
        "schema_version": cfg.schema_version,
        "algorithm": cfg.algorithm,
        "problem": {"name": cfg.problem, "dimension": cfg.dimension},
        "noise": _noise_to_dict(cfg.noise),
        "sampler": _fields_to_dict(cfg.sampler),
        "delta_floor": cfg.delta_floor,
        "output": {"directory": cfg.out_dir},
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
