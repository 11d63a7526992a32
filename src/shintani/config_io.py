"""Config-document parsing, serialization, and CSV emission.

One YAML document drives one subcommand invocation.  Each section (function,
theta and each family, alpha rules, action, output) is a table of fields:
key, codec (leaf decoder and encoder), default or required.  One helper,
`_decode_fields`, reads every section through its table and raises
ConfigError with the key path for a value that is not a mapping, an unknown
key, a missing required key or a wrongly shaped value; `parse_config` adds
the key's line where YAML gives one.  `_encode_fields` writes a section
back through the same table, so parse -> serialize -> parse is the identity
on documents.  CSV output uses 17 significant digits so downstream scripts
reproduce doubles exactly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

import numpy as np
import yaml

from .arithmetic import AlphaRule
from .coefficients import CoefficientSpec
from .distributions import _COUNT_MAX, SPECIAL_DISTRIBUTION_KINDS
from .errors import ConfigError
from .euler import EulerConfig
from .series import (
    SPECIAL_KINDS, ComplexPoint, ShintaniConfig, as_point, as_sigma, validate_config,
)

_SPECIAL_KINDS = SPECIAL_KINDS + SPECIAL_DISTRIBUTION_KINDS


@dataclass(frozen=True)
class RunConfig:
    """Normalized config document; ``data`` round-trips through YAML.  The
    action's points, sigma and t grid come decoded from `point`, `sigma`
    and `t_grid`."""

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

    def _function(self, kind: str, article: str = "a") -> dict:
        """The function section; ConfigError unless it is of `kind`."""
        if self.function_kind != kind:
            raise ConfigError(
                f"subcommand needs {article} {kind} function, got {self.function_kind!r}"
            )
        return self.data["function"]

    def shintani_config(self) -> ShintaniConfig:
        return shintani_from_dict(self._function("shintani"))

    def euler_config(self) -> EulerConfig:
        return euler_from_dict(self._function("euler", "an"))

    def special(self) -> tuple[str, dict]:
        function = self._function("special")
        return function["name"], dict(function.get("params", {}))

    def point(self, key: str, d: int, default: Optional[ComplexPoint] = None) -> ComplexPoint:
        """The action's point `key` (s, base or direction) in C^d; `default`
        when the action has none, and ConfigError when there is no default."""
        if default is not None and not self.action.get(key):
            return default
        vals = _NUMBERS.decode(self._broadcast(key, d), f"action.{key}")
        return as_point(np.asarray(vals, dtype=complex), d)

    def sigma(self, d: int) -> np.ndarray:
        return as_sigma(self._broadcast("sigma", d), d)

    def t_grid(self) -> tuple[int, np.ndarray]:
        """The action's t grid: its axis and its evenly spaced points."""
        g = self.action["t_grid"]
        return g["axis"], np.linspace(g["lo"], g["hi"], g["count"])

    def _broadcast(self, key: str, d: int) -> list:
        """The action's components of `key`, one standing for all d."""
        vals = self.action.get(key)
        if vals is None:
            raise ConfigError(f"action.{key} is required for this subcommand")
        return vals * d if len(vals) == 1 and d > 1 else vals


# ---------------------------------------------------------------------------
# Field tables and the one helper that reads and writes them
# ---------------------------------------------------------------------------

class _PathError(ConfigError):
    """A ConfigError at one key path; `parse_config` adds the key's line."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(message)
        self.path = path


def _error(path: str, what: str) -> _PathError:
    return _PathError(path, f"{path or 'config'}: {what}")


class _Codec(NamedTuple):
    decode: Callable[[Any, str], Any]  # (YAML value, its key path) -> value
    encode: Callable[[Any], Any]  # value -> YAML value


_REQUIRED = object()


class _Field(NamedTuple):
    """One key of a section.  A default of None stands for an absent
    optional value; any other default is a YAML value, decoded like a given
    one.  `name` is the constructor argument or attribute, when not `key`."""

    key: str
    codec: _Codec
    default: Any = _REQUIRED
    name: Optional[str] = None


def _join(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


def _mapping(v: Any, path: str) -> dict:
    if not isinstance(v, dict):
        raise _error(path, f"expected a mapping, got {v!r}")
    return v


def _decode_fields(v: Any, fields: tuple, path: str, null_is_default: bool = False) -> dict:
    """The section `v` at `path` read through its table: the decoded value
    of every field by name, defaults filled.  With `null_is_default` a null
    value stands for an absent one."""
    allowed = [f.key for f in fields]
    for key in _mapping(v, path):
        if key not in allowed:
            key_path = _join(path, key)
            raise _PathError(key_path, f"unknown key '{key_path}'; allowed: {sorted(allowed)}")
    out = {}
    for f in fields:
        given = f.key in v and not (null_is_default and v[f.key] is None)
        if not given and f.default is _REQUIRED:
            raise _error(path, f"missing required key {f.key!r}")
        raw = v[f.key] if given else f.default
        decoded = given or raw is not None  # an absent optional value stays None
        try:
            out[f.name or f.key] = f.codec.decode(raw, _join(path, f.key)) if decoded else None
        except OverflowError:  # an integer past the float range, converted to a float
            raise _error(_join(path, f.key), "a number past the float range") from None
    return out


def _encode_fields(values: dict, fields: tuple) -> dict:
    """The YAML mapping of a section from its values by field name."""
    out = {}
    for f in fields:
        x = values[f.name or f.key]
        out[f.key] = None if x is None else f.codec.encode(x)
    return out


def _section(fields: tuple, make: Callable = dict, parts: Callable = dict) -> _Codec:
    """A nested section: decoded to make(**values), encoded from
    parts(value), its values by field name."""
    return _Codec(
        lambda v, path: make(**_decode_fields(v, fields, path)),
        lambda x: _encode_fields(parts(x), fields),
    )


def _record(*fields: _Field) -> _Codec:
    """A nested section read as the tuple of its values in table order."""
    names = [f.name or f.key for f in fields]
    return _section(fields, lambda **values: tuple(values.values()), lambda t: dict(zip(names, t)))


def _list_of(codec: _Codec) -> _Codec:
    def decode(v: Any, path: str) -> list:
        if not isinstance(v, list):
            raise _error(path, f"expected a list, got {v!r}")
        return [codec.decode(x, f"{path}[{i}]") for i, x in enumerate(v)]

    return _Codec(decode, lambda xs: [codec.encode(x) for x in xs])


def _pairs(key: _Field, value: _Field) -> _Codec:
    """A list of two-field sections read as a dict from the first field's
    value to the second's (a repeated key keeps its last value)."""
    items = _list_of(_record(key, value))
    return _Codec(lambda v, path: dict(items.decode(v, path)), items.encode)


def _choice(names, what: str) -> _Codec:
    def decode(v: Any, path: str) -> str:
        if not isinstance(v, str) or v not in names:
            raise _error(path, f"unknown {what} {v!r}; allowed: {list(names)}")
        return v

    return _Codec(decode, _ANY.encode)


def _build(path: str, make: Callable, **values) -> Any:
    """make(**values), a constructor's error named by `path`."""
    try:
        return make(**values)
    except (ConfigError, TypeError, ValueError) as exc:
        raise _error(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# Leaf codecs: complex numbers as [re, im], vectors as lists
# ---------------------------------------------------------------------------

def _encode_number(z: complex) -> Any:
    z = complex(z)
    if z.imag == 0.0:
        return float(z.real)
    return [float(z.real), float(z.imag)]


def _is_real(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _decode_number(v: Any, path: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    raise _error(path, f"expected a number or [re, im] pair, got {v!r}")


def _decode_real(v: Any, path: str, positive: bool = False) -> float:
    if not _is_real(v):
        raise _error(path, f"expected a real number, got {v!r}")
    if positive and not v > 0:
        raise _error(path, f"must be positive, got {float(v)}")
    return float(v)


def _decode_real_vector(v: Any, path: str) -> list[float]:
    if _is_real(v):
        return [float(v)]
    if isinstance(v, list) and v and all(map(_is_real, v)):
        return [float(x) for x in v]
    raise _error(path, f"expected a real number or list of reals, got {v!r}")


def _typed(kind: type, what: str) -> _Codec:
    """A leaf that is an instance of `kind`, never a bool, kept as is."""
    def decode(v: Any, path: str) -> Any:
        if isinstance(v, bool) or not isinstance(v, kind):
            raise _error(path, f"expected {what}, got {v!r}")
        return v

    return _Codec(decode, lambda x: x)


_ANY = _Codec(lambda v, path: v, lambda x: x)
_NUMBER = _Codec(_decode_number, _encode_number)
_REAL = _Codec(_decode_real, float)
_INT = _typed(int, "an integer")
_STRING = _typed(str, "a string path")
_INTS = _Codec(lambda v, path: tuple(_list_of(_INT).decode(v, path)), list)
_REALS = _Codec(_decode_real_vector, lambda xs: [float(x) for x in xs])
_ROWS = _list_of(_REALS)
_NUMBERS = _list_of(_NUMBER)


def _decode_count(v: Any, path: str) -> int:
    """An integer count of points to form (samples, t grid points), refused
    past `distributions._COUNT_MAX` before anything is allocated."""
    count = _INT.decode(v, path)
    if count > _COUNT_MAX:
        raise _error(path, f"{count} points are past the limit of {_COUNT_MAX}")
    return count


_COUNT = _Codec(_decode_count, lambda x: x)


def _decode_point(v: Any, path: str) -> list[complex]:
    """A complex point: scalar, {re: .., im: ..}, or a component list.

    A bare list of numbers is a list of REAL components (so [3.0, 2.0] is a
    two-dimensional real point); complex components are written as [re, im]
    pairs inside the list, e.g. [[2.0, 1.0]] for the single point 2 + i.
    """
    if isinstance(v, dict):
        parts = _decode_fields(v, (_Field("re", _REALS, 0.0), _Field("im", _REALS, 0.0)), path)
        if len(parts["re"]) != len(parts["im"]):
            raise _error(path, "re and im need matching lengths")
        return [complex(a, b) for a, b in zip(parts["re"], parts["im"])]
    if _is_real(v):
        return [complex(v)]
    if isinstance(v, list):
        if all(map(_is_real, v)):
            return [complex(x) for x in v]
        return _NUMBERS.decode(v, path)
    raise _error(path, f"cannot read a complex point from {v!r}")


_POINT = _Codec(_decode_point, lambda pt: [_encode_number(z) for z in pt])


# ---------------------------------------------------------------------------
# Alpha rules <-> dicts
# ---------------------------------------------------------------------------

def alpha_to_dict(rule: AlphaRule) -> dict:
    _, *fields = _RULE_FIELDS[rule.kind]
    head, *rest = rule.params  # (the first field, *the second field)
    values = dict(zip((f.name or f.key for f in fields), (head, tuple(rest))))
    return {"rule": rule.kind, "params": _encode_fields(values, fields)}


def alpha_from_dict(d: Any, path: str = "alpha") -> AlphaRule:
    top = _decode_fields(d, _ALPHA, path)
    make, *fields = _RULE_FIELDS[top["rule"]]
    p = f"{path}.params"
    return _build(p, make, **_decode_fields(top["params"], fields, p))


_RULE_FIELDS = {  # rule -> (constructor, *the fields of its params)
    "constant": (AlphaRule.constant, _Field("value", _NUMBER, 1.0)),
    "character": (
        AlphaRule.character, _Field("mod", _INT), _Field("table", _NUMBERS, name="values")
    ),
    "table": (
        AlphaRule.table,
        _Field("default", _NUMBER, 0.0),
        _Field("entries", _pairs(_Field("p", _INT), _Field("value", _NUMBER)), []),
    ),
}
_ALPHA = (_Field("rule", _choice(_RULE_FIELDS, "alpha rule")), _Field("params", _ANY, {}))
_ALPHA_CODEC = _Codec(alpha_from_dict, alpha_to_dict)


# ---------------------------------------------------------------------------
# Coefficient specs <-> dicts
# ---------------------------------------------------------------------------

def _encode_nested(arr: np.ndarray):
    if arr.ndim == 1:
        return [_encode_number(v) for v in arr]
    return [_encode_nested(row) for row in arr]


def _decode_table(v: Any, mods: list[int], path: str):
    """Nested residue table; the moduli fix the nesting depth, so [re, im]
    pairs at the leaves stay unambiguous."""
    if not mods:
        return _decode_number(v, path)
    if not isinstance(v, list) or len(v) != mods[0]:
        raise _error(path, f"expected a list of length {mods[0]}")
    return [_decode_table(x, mods[1:], f"{path}[{i}]") for i, x in enumerate(v)]


def theta_to_dict(spec: CoefficientSpec) -> dict:
    params = _encode_fields(spec.params, _FAMILY_FIELDS[spec.family][1:])
    return {"family": spec.family, "params": params}


def theta_from_dict(d: Any, path: str = "theta") -> CoefficientSpec:
    top = _decode_fields(d, _THETA, path)
    make, *fields = _FAMILY_FIELDS[top["family"]]
    p = f"{path}.params"
    params = _decode_fields(top["params"], fields, p)
    if top["family"] == "periodic":
        params["table"] = _decode_table(params["table"], params["mods"], f"{p}.table")
    return _build(p, make, **params)


_THETA_CODEC = _Codec(theta_from_dict, theta_to_dict)
# a periodic table is read once the moduli are known (`theta_from_dict`)
_TABLE = _Codec(lambda v, path: v, lambda t: _encode_nested(np.asarray(t, dtype=complex)))
_FAMILY_FIELDS = {  # family -> (constructor, *the fields of its params)
    "constant": (CoefficientSpec.constant, _Field("value", _NUMBER, 1.0)),
    "finite_support": (
        CoefficientSpec.finite_support,
        _Field("entries", _pairs(_Field("n", _INTS), _Field("value", _NUMBER)), []),
    ),
    "periodic": (CoefficientSpec.periodic, _Field("mods", _INTS), _Field("table", _TABLE)),
    "geometric": (CoefficientSpec.geometric, _Field("ratios", _NUMBERS)),
    "log_factor": (
        CoefficientSpec.log_factor,
        _Field("coeffs", _REALS), _Field("lambda", _ROWS, name="lam"), _Field("u", _REALS),
    ),
    "character_product": (
        CoefficientSpec.character_product,
        _Field("factors", _list_of(_record(
            _Field("mod", _INT), _Field("table", _NUMBERS), _Field("coord", _INT, 0),
            _Field("shift", _INT, 0),
        )), []),
    ),
    "product_of_families": (CoefficientSpec.product, _Field("factors", _list_of(_THETA_CODEC), [])),
    "multiplicative_product": (
        CoefficientSpec.multiplicative_product,
        _Field("coords", _list_of(_list_of(_ALPHA_CODEC))), _Field("growth", _REAL, 0.05),
    ),
    "poisson_powers": (
        CoefficientSpec.poisson_powers, _Field("base", _INT), _Field("rate", _REAL, 0.0)
    ),
}


_THETA = (
    _Field("family", _choice(_FAMILY_FIELDS, "family")),
    _Field("params", _ANY, {}),  # read by the family's table
)


# ---------------------------------------------------------------------------
# Function configs <-> dicts
# ---------------------------------------------------------------------------

def shintani_to_dict(config: ShintaniConfig) -> dict:
    return _encode_fields({**vars(config), "kind": "shintani"}, _SHINTANI)


def shintani_from_dict(d: Any, path: str = "function") -> ShintaniConfig:
    values = _decode_fields(d, _SHINTANI, path)
    del values["kind"]
    return _build(path, ShintaniConfig, **values)


def euler_to_dict(config: EulerConfig) -> dict:
    return _encode_fields({**vars(config), "kind": "euler"}, _EULER)


def euler_from_dict(d: Any, path: str = "function") -> EulerConfig:
    values = _decode_fields(d, _EULER, path)
    del values["kind"]
    if isinstance(values["alphas"], AlphaRule):  # one rule for every factor
        values["alphas"] = (values["alphas"],) * max(values["m"], 1)
    return _build(path, EulerConfig, **values)


def _decode_euler_alpha(v: Any, path: str) -> AlphaRule | tuple[AlphaRule, ...]:
    """An Euler section's alpha: one rule, or the rule `list` holding one
    rule per factor (a tuple)."""
    if isinstance(v, dict) and v.get("rule") == "list":
        return tuple(_decode_fields(v, _ALPHA_LIST, path)["params"]["items"])
    return alpha_from_dict(v, path)


def _encode_euler_alpha(rules: tuple[AlphaRule, ...]) -> dict:
    if len(rules) == 1:
        return alpha_to_dict(rules[0])
    return _encode_fields({"rule": "list", "params": {"items": rules}}, _ALPHA_LIST)


_ALPHA_LIST = (
    _Field("rule", _ANY),
    _Field("params", _section((_Field("items", _list_of(_ALPHA_CODEC)),))),
)
_SHINTANI = (
    _Field("kind", _ANY, None),
    *(_Field(key, _INT) for key in ("d", "m", "r")),
    _Field("lambda", _ROWS, name="lam"),
    _Field("u", _REALS),
    _Field("c", _ROWS),
    _Field("theta", _THETA_CODEC),
)
_EULER = (
    _Field("kind", _ANY, None),
    _Field("m", _INT),
    _Field("d", _INT),
    _Field("alpha", _Codec(_decode_euler_alpha, _encode_euler_alpha), name="alphas"),
    _Field("a", _ROWS),
)


def _plain(v: Any, path: str) -> Any:
    """Normalize loaded YAML values to plain JSON-ish types."""
    if isinstance(v, dict):
        return {str(k): _plain(x, _join(path, k)) for k, x in v.items()}
    if isinstance(v, list):
        return [_plain(x, f"{path}[{i}]") for i, x in enumerate(v)]
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return float(v)
    raise _error(path, f"unsupported value in config: {v!r}")


_SPECIAL = (
    _Field("kind", _ANY),
    _Field("name", _choice(_SPECIAL_KINDS, "special")),
    _Field("params", _Codec(lambda v, path: _plain(_mapping(v, path), path), _ANY.encode), {}),
)


def _decode_function(v: Any, path: str) -> dict:
    """The normalized function section of a shintani, euler or special kind."""
    if not isinstance(v, dict) or "kind" not in v:
        raise _error(path, "needs a 'kind' (shintani, euler, or special)")
    kind = _choice(("shintani", "euler", "special"), "kind").decode(v["kind"], f"{path}.kind")
    if kind == "euler":
        return euler_to_dict(euler_from_dict(v, path))
    if kind == "special":
        return _encode_fields(_decode_fields(v, _SPECIAL, path), _SPECIAL)
    config = shintani_from_dict(v, path)
    report = validate_config(config)
    if not report.ok:
        raise ConfigError("; ".join(f"{path}: {violation}" for violation in report.violations))
    return shintani_to_dict(config)


# ---------------------------------------------------------------------------
# Run configs
# ---------------------------------------------------------------------------

def _decode_t_grid(v: Any, path: str) -> dict:
    g = _decode_fields(v, _T_GRID, path)
    if not (math.isfinite(g["lo"]) and math.isfinite(g["hi"]) and g["count"] >= 1):
        raise _error(path, "needs finite lo and hi and count >= 1")
    return g


_T_GRID = (
    _Field("axis", _INT, 1), _Field("lo", _REAL, -10.0), _Field("hi", _REAL, 10.0),
    _Field("count", _COUNT, 201),
)
_SCAN = (
    _Field("axis", _INT, 1), _Field("lo", _REAL, -20.0), _Field("hi", _REAL, 20.0),
    _Field("step", _REAL, 0.05), _Field("trigger", _REAL, 0.2),
)
_RECTANGLE = tuple(_Field(side, _REAL) for side in ("re_lo", "re_hi", "im_lo", "im_hi"))
_POSITIVE = _Codec(lambda v, path: _decode_real(v, path, positive=True), float)
_ACTION = (
    _Field("s", _POINT, None),
    _Field("sigma", _REALS, None),
    _Field("t", _REALS, None),
    _Field("t_grid", _Codec(_decode_t_grid, _ANY.encode), {}),
    _Field("tol", _POSITIVE, 1e-8),
    _Field("shell_cap", _INT, 10**6),
    _Field("delta", _POSITIVE, 1e-6),
    _Field("seed", _INT, 0),
    _Field("count", _COUNT, 1000),
    _Field("prime_limit", _INT, 10**4),
    _Field("power_cutoff", _INT, 40),
    _Field("coeff_limit", _INT, 50),
    _Field("rectangle", _section(_RECTANGLE), None),
    _Field("base", _POINT, None),
    _Field("direction", _POINT, None),
    _Field("scan", _section(_SCAN), {}),
)
_ROOT = (
    _Field("function", _Codec(_decode_function, _ANY.encode)),
    _Field("action", _Codec(
        lambda v, path: _encode_fields(_decode_fields(v, _ACTION, path, True), _ACTION), _ANY.encode
    ), {}),
    _Field("output", _section((_Field("dir", _STRING, "."),)), {}),
)


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
    try:
        return RunConfig(data=_decode_fields(raw, _ROOT, "", null_is_default=True))
    except _PathError as exc:
        line = _key_lines(text).get(exc.path)
        if line is None:
            raise
        raise ConfigError(f"{exc} (line {line})") from exc


def serialize_config(rc: RunConfig) -> str:
    """Stable YAML serialization; parse(serialize(rc)) == rc."""
    return yaml.safe_dump(rc.data, sort_keys=False, default_flow_style=None)


def _key_lines(text: str) -> dict[str, int]:
    """Map of key paths (dotted keys, [i] for list items) to 1-based line
    numbers via the compose tree."""
    root = yaml.compose(text)
    out: dict[str, int] = {}

    def walk(node, path: str) -> None:
        if isinstance(node, yaml.MappingNode):
            for key_node, val_node in node.value:
                sub = _join(path, key_node.value)
                out[sub] = key_node.start_mark.line + 1
                walk(val_node, sub)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                out[f"{path}[{i}]"] = item.start_mark.line + 1
                walk(item, f"{path}[{i}]")

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
