"""Config-document parsing, serialization, and CSV emission.

One YAML document drives one subcommand invocation.  Parsing validates
against a closed schema (unknown keys are rejected with their location),
fills defaults, and normalizes values so that parse -> serialize -> parse
is the identity on documents.  CSV output uses 17 significant digits so
downstream scripts reproduce doubles exactly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
import yaml

from .arithmetic import AlphaRule
from .coefficients import FAMILIES, CoefficientSpec, Envelope
from .errors import ConfigError
from .euler import EulerConfig
from .series import ShintaniConfig

ACTION_DEFAULTS: dict[str, Any] = {
    "s": None,
    "sigma": None,
    "t": None,
    "t_grid": {"axis": 1, "lo": -10.0, "hi": 10.0, "count": 201},
    "tol": 1e-8,
    "shell_cap": 10**6,
    "delta": 1e-6,
    "seed": 0,
    "count": 1000,
    "prime_limit": 10**4,
    "power_cutoff": 40,
    "coeff_limit": 50,
    "rectangle": None,
    "base": None,
    "direction": None,
    "scan": {"axis": 1, "lo": -20.0, "hi": 20.0, "step": 0.05, "trigger": 0.2},
}

_SPECIAL_KINDS = (
    "riemann", "hurwitz", "lerch", "lerch_transcendent", "euler_zagier",
    "barnes", "generalized_barnes", "riemann_derivative",
    "delta", "binomial", "poisson",
)


@dataclass(frozen=True)
class RunConfig:
    """Normalized config document; ``data`` round-trips through YAML."""

    data: dict

    @property
    def function_kind(self) -> str:
        return self.data["function"]["kind"]

    @property
    def action(self) -> dict:
        return self.data["action"]

    @property
    def output_dir(self) -> str:
        return self.data["output"]["dir"]

    def shintani_config(self) -> ShintaniConfig:
        if self.function_kind != "shintani":
            raise ConfigError(
                f"subcommand needs a shintani function, got {self.function_kind!r}"
            )
        return shintani_from_dict(self.data["function"])

    def euler_config(self) -> EulerConfig:
        if self.function_kind != "euler":
            raise ConfigError(
                f"subcommand needs an euler function, got {self.function_kind!r}"
            )
        return euler_from_dict(self.data["function"])

    def special(self) -> tuple[str, dict]:
        if self.function_kind != "special":
            raise ConfigError(
                f"subcommand needs a special function, got {self.function_kind!r}"
            )
        return self.data["function"]["name"], dict(self.data["function"].get("params", {}))


# ---------------------------------------------------------------------------
# Value encoding: complex numbers as [re, im], vectors as lists
# ---------------------------------------------------------------------------

def _encode_number(z: complex) -> Any:
    z = complex(z)
    if z.imag == 0.0:
        return float(z.real)
    return [float(z.real), float(z.imag)]


def _decode_number(v: Any, path: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    raise ConfigError(f"{path}: expected a number or [re, im] pair, got {v!r}")


def _decode_real(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a real number, got {v!r}")
    return float(v)


def _decode_int(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    return v


def _decode_real_vector(v: Any, path: str) -> list[float]:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return [float(v)]
    if isinstance(v, list) and v and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    ):
        return [float(x) for x in v]
    raise ConfigError(f"{path}: expected a real number or list of reals, got {v!r}")


def _decode_point(v: Any, path: str) -> list[complex]:
    """A complex point: scalar, {re: .., im: ..}, or a component list.

    A bare list of numbers is a list of REAL components (so [3.0, 2.0] is a
    two-dimensional real point); complex components are written as [re, im]
    pairs inside the list, e.g. [[2.0, 1.0]] for the single point 2 + i.
    """
    if isinstance(v, dict):
        _check_keys(v, {"re", "im"}, path)
        re = _decode_real_vector(v.get("re", 0.0), f"{path}.re")
        im = _decode_real_vector(v.get("im", 0.0), f"{path}.im")
        if len(re) != len(im):
            raise ConfigError(f"{path}: re and im need matching lengths")
        return [complex(a, b) for a, b in zip(re, im)]
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return [complex(v)]
    if isinstance(v, list):
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
            return [complex(x) for x in v]
        return [_decode_number(x, f"{path}[{i}]") for i, x in enumerate(v)]
    raise ConfigError(f"{path}: cannot read a complex point from {v!r}")


def _check_keys(d: dict, allowed: set, path: str, lines: Optional[dict] = None) -> None:
    for key in d:
        if key not in allowed:
            key_path = f"{path}.{key}" if path else str(key)
            loc = ""
            if lines and key_path in lines:
                loc = f" (line {lines[key_path]})"
            raise ConfigError(
                f"unknown key '{key_path}'{loc}; allowed: {sorted(allowed)}"
            )


# ---------------------------------------------------------------------------
# Coefficient specs <-> dicts
# ---------------------------------------------------------------------------

def theta_to_dict(spec: CoefficientSpec) -> dict:
    fam = spec.family
    if fam == "constant":
        params: dict = {"value": _encode_number(spec.params["value"])}
    elif fam == "finite_support":
        params = {
            "entries": [
                {"n": list(pt), "value": _encode_number(v)}
                for pt, v in spec.params["entries"]
            ]
        }
    elif fam == "periodic":
        table = np.asarray(spec.params["table"], dtype=complex)
        params = {
            "mods": list(spec.params["mods"]),
            "table": _encode_nested(table),
        }
    elif fam == "geometric":
        params = {"ratios": [_encode_number(q) for q in spec.params["ratios"]]}
    elif fam == "log_factor":
        params = {
            "coeffs": [float(x) for x in spec.params["coeffs"]],
            "lambda": [list(map(float, row)) for row in spec.params["lam"]],
            "u": [float(x) for x in spec.params["u"]],
        }
    elif fam == "character_product":
        params = {
            "factors": [
                {
                    "mod": mod,
                    "table": [_encode_number(v) for v in table],
                    "coord": coord,
                    "shift": shift,
                }
                for mod, table, coord, shift in spec.params["factors"]
            ]
        }
    elif fam == "product_of_families":
        params = {"factors": [theta_to_dict(f) for f in spec.params["factors"]]}
    elif fam == "multiplicative_product":
        params = {
            "coords": [
                [alpha_to_dict(rule) for rule in rules]
                for rules in spec.params["coords"]
            ],
            "growth": float(spec.params["growth"]),
        }
    elif fam == "poisson_powers":
        params = {"base": spec.params["base"], "rate": float(spec.params["rate"])}
    else:
        raise ConfigError(f"cannot serialize family {fam!r}")
    return {
        "family": fam,
        "params": params,
        "envelope": {"B": float(spec.envelope.bound), "eps": float(spec.envelope.growth)},
    }


def _encode_nested(arr: np.ndarray):
    if arr.ndim == 1:
        return [_encode_number(v) for v in arr]
    return [_encode_nested(row) for row in arr]


def theta_from_dict(d: Any, path: str = "theta") -> CoefficientSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected a mapping")
    _check_keys(d, {"family", "params", "envelope"}, path)
    fam = d.get("family")
    if not isinstance(fam, str) or fam not in FAMILIES:
        raise ConfigError(f"{path}.family: unknown family {fam!r}")
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params: expected a mapping")
    envelope = None
    if "envelope" in d:
        env = d["envelope"]
        _check_keys(env, {"B", "eps"}, f"{path}.envelope")
        envelope = Envelope(
            _decode_real(env.get("B", 1.0), f"{path}.envelope.B"),
            _decode_real(env.get("eps", 0.0), f"{path}.envelope.eps"),
        )
    p = f"{path}.params"
    try:
        if fam == "constant":
            _check_keys(params, {"value"}, p)
            return CoefficientSpec.constant(
                _decode_number(params.get("value", 1.0), f"{p}.value"), envelope
            )
        if fam == "finite_support":
            _check_keys(params, {"entries"}, p)
            entries = {}
            for i, e in enumerate(params.get("entries", [])):
                _check_keys(e, {"n", "value"}, f"{p}.entries[{i}]")
                pt = tuple(_decode_int(x, f"{p}.entries[{i}].n") for x in e["n"])
                entries[pt] = _decode_number(e["value"], f"{p}.entries[{i}].value")
            return CoefficientSpec.finite_support(entries, envelope)
        if fam == "periodic":
            _check_keys(params, {"mods", "table"}, p)
            mods = [_decode_int(x, f"{p}.mods") for x in params["mods"]]
            table = _decode_table(params["table"], mods, f"{p}.table")
            return CoefficientSpec.periodic(mods, table, envelope)
        if fam == "geometric":
            _check_keys(params, {"ratios"}, p)
            ratios = [
                _decode_number(x, f"{p}.ratios[{i}]")
                for i, x in enumerate(params["ratios"])
            ]
            return CoefficientSpec.geometric(ratios, envelope)
        if fam == "log_factor":
            _check_keys(params, {"coeffs", "lambda", "u"}, p)
            return CoefficientSpec.log_factor(
                _decode_real_vector(params["coeffs"], f"{p}.coeffs"),
                [_decode_real_vector(row, f"{p}.lambda") for row in params["lambda"]],
                _decode_real_vector(params["u"], f"{p}.u"),
                envelope=envelope,
            )
        if fam == "character_product":
            _check_keys(params, {"factors"}, p)
            factors = []
            for i, f in enumerate(params.get("factors", [])):
                _check_keys(f, {"mod", "table", "coord", "shift"}, f"{p}.factors[{i}]")
                factors.append(
                    (
                        _decode_int(f["mod"], f"{p}.factors[{i}].mod"),
                        [
                            _decode_number(x, f"{p}.factors[{i}].table")
                            for x in f["table"]
                        ],
                        _decode_int(f.get("coord", 0), f"{p}.factors[{i}].coord"),
                        _decode_int(f.get("shift", 0), f"{p}.factors[{i}].shift"),
                    )
                )
            return CoefficientSpec.character_product(factors, envelope)
        if fam == "product_of_families":
            _check_keys(params, {"factors"}, p)
            factors = [
                theta_from_dict(f, f"{p}.factors[{i}]")
                for i, f in enumerate(params.get("factors", []))
            ]
            return CoefficientSpec.product(factors, envelope)
        if fam == "multiplicative_product":
            _check_keys(params, {"coords", "growth"}, p)
            coords = [
                [alpha_from_dict(rd, f"{p}.coords[{i}][{k}]") for k, rd in enumerate(rules)]
                for i, rules in enumerate(params["coords"])
            ]
            return CoefficientSpec.multiplicative_product(
                coords, growth=float(params.get("growth", 0.05)), envelope=envelope
            )
        _check_keys(params, {"base", "rate"}, p)
        return CoefficientSpec.poisson_powers(
            _decode_int(params["base"], f"{p}.base"),
            _decode_real(params.get("rate", 0.0), f"{p}.rate"),
            envelope,
        )
    except KeyError as exc:
        raise ConfigError(f"{p}: missing required key {exc.args[0]!r}") from exc


def _decode_table(v: Any, mods: list[int], path: str):
    """Nested residue table; the moduli fix the nesting depth, so [re, im]
    pairs at the leaves stay unambiguous."""
    if not mods:
        return _decode_number(v, path)
    if not isinstance(v, list) or len(v) != mods[0]:
        raise ConfigError(f"{path}: expected a list of length {mods[0]}")
    return [_decode_table(x, mods[1:], f"{path}[{i}]") for i, x in enumerate(v)]


# ---------------------------------------------------------------------------
# Alpha rules <-> dicts
# ---------------------------------------------------------------------------

def alpha_to_dict(rule: AlphaRule) -> dict:
    if rule.kind == "constant":
        return {"rule": "constant", "params": {"value": _encode_number(rule.params[0])}}
    if rule.kind == "character":
        mod = rule.params[0]
        return {
            "rule": "character",
            "params": {"mod": mod, "table": [_encode_number(v) for v in rule.params[1:]]},
        }
    return {
        "rule": "table",
        "params": {
            "default": _encode_number(rule.params[0]),
            "entries": [
                {"p": p, "value": _encode_number(v)} for p, v in rule.params[1:]
            ],
        },
    }


def alpha_from_dict(d: Any, path: str = "alpha") -> AlphaRule:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected a mapping with rule/params")
    _check_keys(d, {"rule", "params"}, path)
    kind = d.get("rule")
    params = d.get("params", {})
    p = f"{path}.params"
    if kind == "constant":
        _check_keys(params, {"value"}, p)
        return AlphaRule.constant(_decode_number(params.get("value", 1.0), f"{p}.value"))
    if kind == "character":
        _check_keys(params, {"mod", "table"}, p)
        return AlphaRule.character(
            _decode_int(params["mod"], f"{p}.mod"),
            [_decode_number(x, f"{p}.table") for x in params["table"]],
        )
    if kind == "table":
        _check_keys(params, {"default", "entries"}, p)
        entries = {}
        for i, e in enumerate(params.get("entries", [])):
            _check_keys(e, {"p", "value"}, f"{p}.entries[{i}]")
            entries[_decode_int(e["p"], f"{p}.entries[{i}].p")] = _decode_number(
                e["value"], f"{p}.entries[{i}].value"
            )
        return AlphaRule.table(entries, _decode_number(params.get("default", 0.0), f"{p}.default"))
    raise ConfigError(f"{path}.rule: unknown alpha rule {kind!r}")


# ---------------------------------------------------------------------------
# Function configs <-> dicts
# ---------------------------------------------------------------------------

def shintani_to_dict(config: ShintaniConfig) -> dict:
    return {
        "kind": "shintani",
        "d": config.d,
        "m": config.m,
        "r": config.r,
        "lambda": [list(map(float, row)) for row in config.lam],
        "u": [float(x) for x in config.u],
        "c": [list(map(float, row)) for row in config.c],
        "theta": theta_to_dict(config.theta),
    }


def shintani_from_dict(d: dict, path: str = "function") -> ShintaniConfig:
    _check_keys(d, {"kind", "d", "m", "r", "lambda", "u", "c", "theta"}, path)
    try:
        return ShintaniConfig(
            d=_decode_int(d["d"], f"{path}.d"),
            m=_decode_int(d["m"], f"{path}.m"),
            r=_decode_int(d["r"], f"{path}.r"),
            lam=np.asarray(
                [_decode_real_vector(row, f"{path}.lambda") for row in d["lambda"]]
            ),
            u=np.asarray(_decode_real_vector(d["u"], f"{path}.u")),
            c=np.asarray([_decode_real_vector(row, f"{path}.c") for row in d["c"]]),
            theta=theta_from_dict(d["theta"], f"{path}.theta"),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing required key {exc.args[0]!r}") from exc


def euler_to_dict(config: EulerConfig) -> dict:
    if config.m == 1:
        alpha = alpha_to_dict(config.alphas[0])
    else:
        alpha = {
            "rule": "list",
            "params": {"items": [alpha_to_dict(r) for r in config.alphas]},
        }
    return {
        "kind": "euler",
        "m": config.m,
        "d": config.d,
        "alpha": alpha,
        "a": [list(map(float, row)) for row in config.a],
    }


def euler_from_dict(d: dict, path: str = "function") -> EulerConfig:
    _check_keys(d, {"kind", "m", "d", "alpha", "a"}, path)
    try:
        m = _decode_int(d["m"], f"{path}.m")
        alpha = d["alpha"]
        if isinstance(alpha, dict) and alpha.get("rule") == "list":
            _check_keys(alpha, {"rule", "params"}, f"{path}.alpha")
            _check_keys(alpha["params"], {"items"}, f"{path}.alpha.params")
            rules = tuple(
                alpha_from_dict(item, f"{path}.alpha.params.items[{i}]")
                for i, item in enumerate(alpha["params"]["items"])
            )
        else:
            rules = (alpha_from_dict(alpha, f"{path}.alpha"),)
            if m > 1:
                rules = rules * m
        return EulerConfig(
            d=_decode_int(d["d"], f"{path}.d"),
            m=m,
            alphas=rules,
            a=np.asarray([_decode_real_vector(row, f"{path}.a") for row in d["a"]]),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing required key {exc.args[0]!r}") from exc


# ---------------------------------------------------------------------------
# Run configs
# ---------------------------------------------------------------------------

def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; errors carry key paths and,
    where YAML provides them, line numbers."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" (line {mark.line + 1})" if mark else ""
        raise ConfigError(f"config syntax error{line}: {exc}") from exc
    if raw is None:
        raise ConfigError("empty config document")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    lines = _key_lines(text)
    _check_keys(raw, {"function", "action", "output"}, "", lines)
    if "function" not in raw:
        raise ConfigError("config: missing required section 'function'")
    func = raw["function"]
    if not isinstance(func, dict) or "kind" not in func:
        raise ConfigError("function: needs a 'kind' (shintani, euler, or special)")
    kind = func["kind"]
    if kind == "shintani":
        config = shintani_from_dict(func)
        from .series import validate_config

        report = validate_config(config)
        if not report.ok:
            raise ConfigError("; ".join(f"function: {v}" for v in report.violations))
        func_norm = shintani_to_dict(config)
    elif kind == "euler":
        func_norm = euler_to_dict(euler_from_dict(func))
    elif kind == "special":
        _check_keys(func, {"kind", "name", "params"}, "function", lines)
        name = func.get("name")
        if name not in _SPECIAL_KINDS:
            raise ConfigError(
                f"function.name: unknown special {name!r}; allowed: {list(_SPECIAL_KINDS)}"
            )
        params = func.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("function.params: expected a mapping")
        func_norm = {"kind": "special", "name": name, "params": _plain(params)}
    else:
        raise ConfigError(f"function.kind: unknown kind {kind!r}")
    action = _parse_action(raw.get("action", {}) or {}, lines)
    output = raw.get("output", {}) or {}
    if not isinstance(output, dict):
        raise ConfigError("output: expected a mapping")
    _check_keys(output, {"dir"}, "output", lines)
    out_dir = output.get("dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("output.dir: expected a string path")
    return RunConfig(
        data={"function": func_norm, "action": action, "output": {"dir": out_dir}}
    )


def _parse_action(action: Any, lines: Optional[dict]) -> dict:
    if not isinstance(action, dict):
        raise ConfigError("action: expected a mapping")
    _check_keys(action, set(ACTION_DEFAULTS), "action", lines)
    out: dict = {}
    for key, default in ACTION_DEFAULTS.items():
        if key not in action or action[key] is None:
            out[key] = default
            continue
        v = action[key]
        path = f"action.{key}"
        if key in ("s", "base", "direction"):
            out[key] = [_encode_number(z) for z in _decode_point(v, path)]
        elif key in ("sigma", "t"):
            out[key] = _decode_real_vector(v, path)
        elif key in ("t_grid", "scan"):
            _check_keys(v, set(default), path, lines)
            out[key] = {
                sub: (_decode_int if sub in ("axis", "count") else _decode_real)(
                    v.get(sub, sub_default), f"{path}.{sub}"
                )
                for sub, sub_default in default.items()
            }
            if key == "t_grid":
                lo, hi, count = out[key]["lo"], out[key]["hi"], out[key]["count"]
                if not (math.isfinite(lo) and math.isfinite(hi) and count >= 1):
                    raise ConfigError(f"{path}: needs finite lo and hi and count >= 1")
        elif key == "rectangle":
            _check_keys(v, {"re_lo", "re_hi", "im_lo", "im_hi"}, path, lines)
            out[key] = {
                side: _decode_real(v[side], f"{path}.{side}")
                for side in ("re_lo", "re_hi", "im_lo", "im_hi")
            }
        elif key in ("shell_cap", "seed", "count", "prime_limit", "power_cutoff", "coeff_limit"):
            out[key] = _decode_int(v, path)
        elif key in ("tol", "delta"):
            x = _decode_real(v, path)
            if not x > 0:
                raise ConfigError(f"{path}: must be positive, got {x}")
            out[key] = x
    return out


def _plain(v: Any) -> Any:
    """Normalize loaded YAML values to plain JSON-ish types."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_plain(x) for x in v]
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return float(v)
    raise ConfigError(f"unsupported value in config: {v!r}")


def serialize_config(rc: RunConfig) -> str:
    """Stable YAML serialization; parse(serialize(rc)) == rc."""
    return yaml.safe_dump(rc.data, sort_keys=False, default_flow_style=None)


def _key_lines(text: str) -> dict[str, int]:
    """Map of dotted key paths to 1-based line numbers via the compose tree."""
    try:
        root = yaml.compose(text)
    except yaml.YAMLError:
        return {}
    out: dict[str, int] = {}

    def walk(node, path: str) -> None:
        if isinstance(node, yaml.MappingNode):
            for key_node, val_node in node.value:
                sub = f"{path}.{key_node.value}" if path else str(key_node.value)
                out[sub] = key_node.start_mark.line + 1
                walk(val_node, sub)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                walk(item, f"{path}[{i}]")

    if root is not None:
        walk(root, "")
    return out


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits reproduces the double exactly."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def emit_csv(header: list[str], rows, path) -> None:
    """Comma-separated, header row, full-precision decimals, newline-terminated."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(format_float(x) for x in row) + "\n")
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())
