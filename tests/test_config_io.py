"""Config parsing/serialization round-trips, CSV emission, and the CLI."""

import csv
import math
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from shintani.cli import cli
from shintani.arithmetic import AlphaRule
from shintani.config_io import (
    alpha_from_dict,
    alpha_to_dict,
    emit_csv,
    euler_from_dict,
    euler_to_dict,
    format_float,
    parse_config,
    serialize_config,
    shintani_from_dict,
    shintani_to_dict,
    theta_from_dict,
    theta_to_dict,
)
from shintani.coefficients import FAMILIES, CoefficientSpec
from shintani.errors import ConfigError
from shintani.euler import EulerConfig, dedekind_euler_config
from shintani.distributions import _COUNT_MAX, SPECIAL_DISTRIBUTION_KINDS
from shintani.series import SPECIAL_KINDS, make_special

MINIMAL = """
function:
  kind: special
  name: riemann
"""

RIEMANN_EXPLICIT = """
function:
  kind: shintani
  d: 1
  m: 1
  r: 1
  lambda: [[1.0]]
  u: [1.0]
  c: [[1.0]]
  theta:
    family: constant
    params: {value: 1.0}
action:
  s: 2.0
  tol: 1.0e-6
output:
  dir: out
"""


class TestParse:
    def test_minimal_defaults(self):
        rc = parse_config(MINIMAL)
        assert rc.action["tol"] == 1e-8
        assert rc.action["shell_cap"] == 10**6
        assert rc.action["seed"] == 0
        assert rc.output_dir == "."

    def test_explicit_function(self):
        rc = parse_config(RIEMANN_EXPLICIT)
        cfg = rc.shintani_config()
        assert cfg.d == cfg.m == cfg.r == 1
        assert rc.action["tol"] == 1e-6

    def test_negative_u_rejected(self):
        text = RIEMANN_EXPLICIT.replace("u: [1.0]", "u: [-1.0]")
        with pytest.raises(ConfigError, match="u_j must be positive"):
            parse_config(text)

    def test_unknown_key_with_location(self):
        text = RIEMANN_EXPLICIT + "\nbogus: 1\n"
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(text)
        bad_action = RIEMANN_EXPLICIT.replace("  tol: 1.0e-6", "  tolle: 1.0e-6")
        with pytest.raises(ConfigError) as err:
            parse_config(bad_action)
        assert "action.tolle" in str(err.value)
        assert "line" in str(err.value)

    def test_syntax_error_line(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("function:\n  kind: [unclosed\n")

    def test_round_trip_documents(self):
        for text in (MINIMAL, RIEMANN_EXPLICIT):
            rc = parse_config(text)
            again = parse_config(serialize_config(rc))
            assert again == rc

    def test_bad_tol(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config(MINIMAL + "action: {tol: -1.0}\n")

    def test_bad_method(self):
        # no subcommand reads a method, so the key is unknown
        with pytest.raises(ConfigError, match="unknown key 'action.method'"):
            parse_config(MINIMAL + "action: {method: wrong}\n")

    def test_point_forms(self):
        # bare numeric lists are real components; [re, im] pairs nest inside
        real2d = parse_config(MINIMAL + "action: {s: [3.0, 2.0]}\n")
        assert real2d.action["s"] == [3.0, 2.0]
        cplx = parse_config(MINIMAL + "action: {s: [[3.0, 0.5], [2.0, -0.25]]}\n")
        mapped = parse_config(MINIMAL + "action: {s: {re: [3.0, 2.0], im: [0.5, -0.25]}}\n")
        assert cplx.action["s"] == mapped.action["s"] == [[3.0, 0.5], [2.0, -0.25]]


theta_specs = st.sampled_from(
    [
        CoefficientSpec.constant(1.0),
        CoefficientSpec.constant(-2.5),
        CoefficientSpec.constant(0.5 + 0.25j),
        CoefficientSpec.finite_support({(0,): 1.0, (3,): -2.0}),
        CoefficientSpec.periodic((3,), (1.0, 0.0, -1.0)),
        CoefficientSpec.geometric((0.5,)),
        CoefficientSpec.geometric((complex(math.cos(0.6), math.sin(0.6)),)),
        CoefficientSpec.log_factor((1.0, -2.0), [[1.0], [0.5]], (1.0,)),
        CoefficientSpec.character_product([(4, (0, 1, 0, -1), 0, 1)]),
        CoefficientSpec.product(
            [CoefficientSpec.constant(2.0), CoefficientSpec.geometric((0.5,))]
        ),
        CoefficientSpec.poisson_powers(2, 0.5),
    ]
)


class TestRoundTrips:
    @given(theta_specs)
    @settings(max_examples=30, deadline=None)
    def test_theta_round_trip(self, spec):
        again = theta_from_dict(theta_to_dict(spec))
        assert again == spec

    def test_every_registered_family_round_trips(self):
        examples = [
            CoefficientSpec.constant(1.0),
            CoefficientSpec.finite_support({(0,): 1.0}),
            CoefficientSpec.periodic((2,), (1.0, -1.0)),
            CoefficientSpec.geometric((0.5,)),
            CoefficientSpec.log_factor((1.0,), [[1.0]], (1.0,)),
            CoefficientSpec.character_product([(2, (1.0, -1.0), 0, 0)]),
            CoefficientSpec.product([CoefficientSpec.constant(2.0)]),
            CoefficientSpec.multiplicative_product([(dedekind_euler_config().alphas[1],)]),
            CoefficientSpec.poisson_powers(2),
        ]
        assert sorted(spec.family for spec in examples) == sorted(FAMILIES)
        for spec in examples:
            assert theta_from_dict(theta_to_dict(spec)) == spec

    def test_multiplicative_theta_round_trip(self):
        spec = CoefficientSpec.multiplicative_product(
            [(dedekind_euler_config().alphas[1],)]
        )
        assert theta_from_dict(theta_to_dict(spec)) == spec

    @given(
        st.sampled_from(
            [
                ("riemann", {}),
                ("hurwitz", {"u": 0.5}),
                ("lerch_transcendent", {"u": 1.0, "q": 0.5}),
                ("euler_zagier", {"r": 2, "u": (1.0, 1.0)}),
                ("barnes", {"r": 2, "lam": (1.0, 2.0), "u": 3.0}),
                ("riemann_derivative", {}),
            ]
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_shintani_round_trip(self, spec):
        kind, params = spec
        cfg = make_special(kind, **params)
        again = shintani_from_dict(shintani_to_dict(cfg))
        assert shintani_to_dict(again) == shintani_to_dict(cfg)

    def test_euler_round_trip(self):
        cfg = dedekind_euler_config()
        again = euler_from_dict(euler_to_dict(cfg))
        assert euler_to_dict(again) == euler_to_dict(cfg)

    def test_alpha_table_rule_round_trip(self):
        rule = AlphaRule.table({2: 0.5, 3: complex(0.0, -1.0)}, default=0.25)
        assert alpha_to_dict(rule) == {
            "rule": "table",
            "params": {"default": 0.25, "entries": [{"p": 2, "value": 0.5},
                                                     {"p": 3, "value": [0.0, -1.0]}]},
        }
        assert alpha_from_dict(alpha_to_dict(rule)) == rule
        spec = CoefficientSpec.multiplicative_product([(rule,)])
        assert theta_from_dict(theta_to_dict(spec)) == spec
        doc = {"function": shintani_to_dict(make_special("riemann"))}
        doc["function"]["theta"] = theta_to_dict(spec)
        rc = parse_config(yaml.safe_dump(doc))
        assert rc.shintani_config().theta == spec
        assert parse_config(serialize_config(rc)) == rc

    def test_euler_single_rule(self):
        # m = 1 writes its one rule without a list
        cfg = EulerConfig(d=1, m=1, alphas=(AlphaRule.constant(-1.0),), a=[[2.0]])
        doc = euler_to_dict(cfg)
        assert doc["alpha"] == {"rule": "constant", "params": {"value": -1.0}}
        assert euler_to_dict(euler_from_dict(doc)) == doc
        # one rule for m > 1 stands for every factor
        chi = {"rule": "character", "params": {"mod": 4, "table": [0.0, 1.0, 0.0, -1.0]}}
        wide = euler_from_dict({"kind": "euler", "m": 3, "d": 1, "alpha": chi,
                                "a": [[1.0], [2.0], [3.0]]})
        assert wide.alphas == (alpha_from_dict(chi),) * 3
        assert euler_to_dict(wide)["alpha"]["params"]["items"] == [chi] * 3

    def test_generated_run_configs_round_trip(self):
        rng = np.random.default_rng(33)
        for i in range(100):
            pick = i % 4
            if pick == 0:
                func = shintani_to_dict(make_special("hurwitz", u=float(rng.uniform(0.1, 1.0))))
            elif pick == 1:
                func = shintani_to_dict(
                    make_special("lerch_transcendent", u=float(rng.uniform(0.2, 2.0)),
                                 q=float(rng.uniform(0.1, 0.9)))
                )
            elif pick == 2:
                func = euler_to_dict(dedekind_euler_config())
            else:
                func = {"kind": "special", "name": "binomial",
                        "params": {"j": 2, "big_k": int(rng.integers(1, 6)),
                                   "phi": float(rng.uniform(0.5, 3.0)), "sigma": -1.0}}
            doc = {
                "function": func,
                "action": {"s": float(rng.uniform(1.5, 4.0)), "seed": int(rng.integers(0, 100))},
                "output": {"dir": "."},
            }
            text = yaml.safe_dump(doc, sort_keys=False)
            rc = parse_config(text)
            assert parse_config(serialize_config(rc)) == rc


class TestCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(["a", "b"], [], path)
        assert path.read_text() == "a,b\n"

    def test_seventeen_digits(self, tmp_path):
        path = tmp_path / "x.csv"
        emit_csv(["x"], [[1.0 / 3.0]], path)
        text = path.read_text()
        assert text == "x\n0.33333333333333331\n"

    def test_float_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = float(struct.unpack("d", struct.pack("d", rng.uniform(-1e6, 1e6)))[0])
            assert float(format_float(x)) == x
        assert float(format_float(math.pi * 1e-8)) == math.pi * 1e-8

    def test_newline_terminated(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(["a"], [[1.0], [2.0]], path)
        assert path.read_text().endswith("\n")


def _series(theta="{family: constant}", lam="[[1.0]]", c="[[1.0]]", m=1):
    return (f"function: {{kind: shintani, d: 1, m: {m}, r: 1, lambda: {lam}, u: [1.0], c: {c},\n"
            f"           theta: {theta}}}\n")


def _rules(coords):
    return _series(f"{{family: multiplicative_product, params: {{coords: {coords}}}}}")


_EULER_DOC = "function: {{kind: euler, m: {m}, d: 1, alpha: {alpha}, a: {a}}}\n"
_RIEMANN = "function: {kind: special, name: riemann}\n"
_BINOMIAL = ("function: {kind: special, name: binomial,\n"
             "           params: {j: 2, big_k: 1, phi: 2.718281828459045, sigma: -1.0}}\n")

# document -> the key path its ConfigError names; each once escaped
# parse_config as a TypeError, KeyError or ValueError (a traceback, exit 1)
MALFORMED = {
    "theta mods": (_series("{family: periodic, params: {mods: 2, table: [1.0, -1.0]}}"),
                   "function.theta.params.mods"),
    "theta entries": (_series("{family: finite_support, params: {entries: 3}}"),
                      "function.theta.params.entries"),
    "theta entry": (_series("{family: finite_support, params: {entries: [3]}}"),
                    "function.theta.params.entries[0]"),
    "theta n": (_series("{family: finite_support, params: {entries: [{n: 0, value: 1.0}]}}"),
                "function.theta.params.entries[0].n"),
    "theta ratios": (_series("{family: geometric, params: {ratios: 0.5}}"),
                     "function.theta.params.ratios"),
    "theta lambda": (
        _series("{family: log_factor, params: {coeffs: [1.0], lambda: 1.0, u: [1.0]}}"),
        "function.theta.params.lambda",
    ),
    "theta factors": (_series("{family: character_product, params: {factors: 3}}"),
                      "function.theta.params.factors"),
    "theta factor": (_series("{family: character_product, params: {factors: [3]}}"),
                     "function.theta.params.factors[0]"),
    "character table": (
        _series("{family: character_product, params: {factors: [{mod: 2, table: 1.0}]}}"),
        "function.theta.params.factors[0].table",
    ),
    "product factors": (_series("{family: product_of_families, params: {factors: 3}}"),
                        "function.theta.params.factors"),
    "coords": (_rules("3"), "function.theta.params.coords"),
    "coords row": (_rules("[3]"), "function.theta.params.coords[0]"),
    "envelope": (_series("{family: constant, envelope: 3}"), "unknown key 'function.theta.envelope'"),
    "growth": (_series("{family: multiplicative_product,\n"
                       "                   params: {coords: [[{rule: constant}]], growth: abc}}"),
               "function.theta.params.growth"),
    "function lambda": (_series(lam="1.0"), "function.lambda"),
    "function lambda rows": (_series(lam="[[1.0], [1.0, 2.0]]", c="[[1.0], [1.0]]", m=2),
                             "function"),
    "function c": (_series(c="1.0"), "function.c"),
    "function a": (_EULER_DOC.format(m=1, alpha="{rule: constant}", a="1.0"), "function.a"),
    "alpha items": (_EULER_DOC.format(m=2, alpha="{rule: list, params: {items: 3}}",
                                      a="[[1.0], [1.0]]"), "function.alpha.params.items"),
    "alpha item": (_EULER_DOC.format(m=2, alpha="{rule: list, params: {items: [3, 3]}}",
                                     a="[[1.0], [1.0]]"), "function.alpha.params.items[0]"),
    "alpha params": (_rules("[[{rule: character, params: 3}]]"),
                     "function.theta.params.coords[0][0].params"),
    "alpha table": (_rules("[[{rule: character, params: {mod: 2, table: 1.0}}]]"),
                    "function.theta.params.coords[0][0].params.table"),
    "alpha entries": (_rules("[[{rule: table, params: {entries: 3}}]]"),
                      "function.theta.params.coords[0][0].params.entries"),
    "alpha entry": (_rules("[[{rule: table, params: {entries: [3]}}]]"),
                    "function.theta.params.coords[0][0].params.entries[0]"),
    "t_grid": (_RIEMANN + "action: {t_grid: 3}\n", "action.t_grid"),
    "scan": (_RIEMANN + "action: {scan: 3}\n", "action.scan"),
    "rectangle": (_RIEMANN + "action: {rectangle: 3}\n", "action.rectangle"),
    "rectangle without im_hi": (
        _RIEMANN + "action: {rectangle: {re_lo: 0.0, re_hi: 1.0, im_lo: 0.0}}\n",
        "action.rectangle: missing required key 'im_hi'",
    ),
}


@pytest.mark.parametrize("doc, path", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_document_is_config_error(tmp_path, doc, path):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value).startswith(path)
    assert "(line " in str(err.value)
    cfgp = tmp_path / "config.yaml"
    cfgp.write_text(doc + f"output: {{dir: '{tmp_path}'}}\n")
    result = CliRunner().invoke(cli, ["eval", "--config", str(cfgp)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "config error: " + path in result.output
    assert "Traceback" not in result.output


class TestCli:
    def write(self, tmp_path, text):
        p = tmp_path / "config.yaml"
        p.write_text(text)
        return str(p)

    def test_eval_riemann(self, tmp_path):
        runner = CliRunner()
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            "action: {s: 2.0, tol: 1.0e-6}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = runner.invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 0, result.output
        assert "1.64493" in result.output
        assert (tmp_path / "eval.csv").exists()

    def test_eval_euler(self, tmp_path):
        doc = {
            "function": euler_to_dict(dedekind_euler_config()),
            "action": {"s": 2.0, "prime_limit": 2000},
            "output": {"dir": str(tmp_path)},
        }
        cfgp = self.write(tmp_path, yaml.safe_dump(doc))
        result = CliRunner().invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 0, result.output
        assert "1.506" in result.output

    def test_exit_code_config_error(self, tmp_path):
        cfgp = self.write(tmp_path, "function: {kind: shintani, d: 0}\n")
        result = CliRunner().invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 2

    @pytest.mark.parametrize("subcommand, params", [
        # a traceback with exit 1 once
        ("dist", "{name: binomial, params: {j: abc, big_k: 1, phi: 1.0, sigma: -2.0}}"),
        # evaluated r = 2 once
        ("eval", "{name: barnes, params: {r: 2.5, lam: [1.0, 1.0], u: 1.0}}"),
        ("special", "{name: binomial, params: {j: 2, big_k: 1.5, phi: 1.0, sigma: -2.0}}"),
        ("eval", "{name: hurwitz, params: {u: true}}"),
    ])
    def test_malformed_special_parameter_exits_2(self, tmp_path, subcommand, params):
        cfgp = self.write(
            tmp_path,
            f"function: {{kind: special, {params[1:]}\n"
            f"action: {{s: 3.0, sigma: [2.0]}}\noutput: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, [subcommand, "--config", cfgp])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "config error:" in result.output and "Traceback" not in result.output
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("theta, message", [
        # a declared envelope below theta's own once certified zeta(2) 9.95e-3 off
        ("{family: constant, params: {value: 1.0}, envelope: {B: 1.0e-6, eps: 0.0}}",
         "unknown key 'function.theta.envelope'"),
        ("{family: finite_support, params: {entries: [{n: [0], value: 1.0}, {n: [1], value: .nan}]}}",
         "function.theta.params: finite_support: no finite envelope from entries"),
    ], ids=["declared envelope", "nan entry"])
    def test_theta_without_a_finite_derived_envelope_exits_2(self, tmp_path, theta, message):
        cfgp = self.write(
            tmp_path,
            "function: {kind: shintani, d: 1, m: 1, r: 1, lambda: [[1.0]], u: [1.0], c: [[1.0]],\n"
            f"  theta: {theta}}}\n"
            f"action: {{s: 2.0, tol: 1.0e-8}}\noutput: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "config error: " + message in result.output and "Traceback" not in result.output
        assert not list(tmp_path.glob("*.csv"))

    # finite parts whose modulus passes the float range: OverflowError and exit 1 once
    @pytest.mark.parametrize("theta, message", [
        ("{family: constant, params: {value: [1.5e+308, 1.5e+308]}}",
         "function.theta.params: constant: no finite envelope from value"),
        ("{family: geometric, params: {ratios: [[1.5e+308, 1.5e+308]]}}",
         "function.theta.params: geometric ratio must satisfy 0 < |q| <= 1"),
    ], ids=["constant", "geometric"])
    def test_complex_parameter_past_the_float_range_exits_2(self, tmp_path, theta, message):
        cfgp = self.write(
            tmp_path,
            "function: {kind: shintani, d: 1, m: 1, r: 1, lambda: [[1.0]], u: [1.0], c: [[1.0]],\n"
            f"  theta: {theta}}}\n"
            f"action: {{s: 2.0, tol: 1.0e-8}}\noutput: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 2, result.output
        assert "config error: " + message in result.output and "Traceback" not in result.output
        assert not list(tmp_path.glob("*.csv"))

    # each exited 1 with a traceback once: OverflowError converting the integer
    @pytest.mark.parametrize("subcommand, function, action, message", [
        ("eval", f"{{kind: shintani, d: 1, m: 1, r: 1, lambda: [[{10**400}]], u: [1.0], c: [[1.0]],"
         " theta: {family: constant, params: {value: 1.0}}}", "{s: 2.0}",
         "function.lambda: a number past the float range"),
        ("dist", "{kind: special, name: riemann}", f"{{sigma: [{2 * 10**400}]}}",
         "action.sigma: a number past the float range"),
        ("eval", "{kind: shintani, d: 1, m: 1, r: 1, lambda: [[1.0]], u: [1.0], c: [[1.0]],"
         " theta: {family: finite_support, params: {entries: [{n: [0], value: 1.0},"
         f" {{n: [{2**63}], value: 1.0}}]}}}}}}", "{s: 2.0}",
         f"function.theta.params: finite_support points must be nonnegative and at most {2**63 - 1}"),
    ], ids=["lambda 10^400", "sigma 2e400", "finite_support n 2^63"])
    def test_integer_past_the_number_range_exits_2(self, tmp_path, subcommand, function, action,
                                                   message):
        cfgp = self.write(
            tmp_path, f"function: {function}\naction: {action}\noutput: {{dir: '{tmp_path}'}}\n"
        )
        result = CliRunner().invoke(cli, [subcommand, "--config", cfgp])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "config error: " + message in result.output and "Traceback" not in result.output
        assert not list(tmp_path.glob("*.csv"))

    def test_cf_phase_past_the_float_range_is_numeric_error(self, tmp_path):
        # wrote four nan rows and exited 0 once; RuntimeWarnings are errors in
        # this suite, so none escapes either
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            "action: {sigma: [2.0], delta: 1.0e-3, t_grid: {lo: 0, hi: -1.5e+308, count: 5}}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["cf", "--config", cfgp])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "numeric error: atom_cf_grid" in result.output and "Traceback" not in result.output
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, action, path, csv", [
        ("sample", f"count: {_COUNT_MAX + 1}", "action.count", "samples.csv"),
        ("cf", f"t_grid: {{count: {_COUNT_MAX + 1}}}", "action.t_grid.count", "cf.csv"),
        ("sample", "count: 2147483649", "action.count", "samples.csv"),
        ("sample", f"count: {2**40}", "action.count", "samples.csv"),
        ("sample", f"count: {2**63 - 1}", "action.count", "samples.csv"),
        ("sample", f"count: {2**63}", "action.count", "samples.csv"),
        ("cf", f"t_grid: {{count: {10**400}}}", "action.t_grid.count", "cf.csv"),
        ("levy-check", f"t_grid: {{count: {10**400}}}", "action.t_grid.count", "levy_check.csv"),
        ("levy-check", f"t_grid: {{count: {2**63}}}", "action.t_grid.count", "levy_check.csv"),
    ])
    def test_count_past_the_limit_is_config_error(self, tmp_path, command, action, path, csv):
        # sample raised ValueError or MemoryError from numpy once, and a t grid
        # of 10^400 points ValueError; each is refused when the document is read
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            f"action: {{sigma: 2.0, delta: 1.0e-3, prime_limit: 100, {action}}}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, [command, "--config", cfgp, "--quiet"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"config error: {path}" in result.output and "past the limit" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / csv).exists()

    @pytest.mark.parametrize("command, doc, path, csv", [
        ("zeros", _BINOMIAL + "action: {sigma: [-1.0], scan: {step: 1.0e-12}}\n", "action.scan.step", "zeros.csv"),
        ("zeros", _BINOMIAL + "action: {sigma: [-1.0], scan: {step: 1.0e-300}}\n", "action.scan.step", "zeros.csv"),
        ("zeros", _BINOMIAL + "action: {sigma: [-1.0], scan: {lo: -1.0e+308, hi: 1.0e+308}}\n",
         "action.scan.step", "zeros.csv"),
        ("eval", _EULER_DOC.format(m=1, alpha="{rule: constant, params: {value: 1.0}}", a="[[1.0]]")
         + f"action: {{s: 2.0, prime_limit: {10**15}}}\n", "action.prime_limit", "eval.csv"),
        ("levy-check", _RIEMANN + f"action: {{sigma: 2.0, prime_limit: {2**31 + 1}}}\n",
         "action.prime_limit", "levy_check.csv"),
        ("levy-check", _RIEMANN + f"action: {{sigma: 2.0, prime_limit: {10**400}}}\n",
         "action.prime_limit", "levy_check.csv"),
    ], ids=["scan-1e-12", "scan-1e-300", "scan-2e308", "eval-1e15", "levy-2^31+1", "levy-1e400"])
    def test_allocation_past_the_limit_is_config_error(self, tmp_path, command, doc, path, csv):
        # a scan step of 1e-12 raised MemoryError (291 TiB) and one of 1e-300
        # ValueError from numpy, a prime limit of 10^15 MemoryError in the
        # sieve; each is refused when the document is read
        cfgp = self.write(tmp_path, doc + f"output: {{dir: '{tmp_path}'}}\n")
        result = CliRunner().invoke(cli, [command, "--config", cfgp, "--quiet"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"config error: {path}" in result.output and "past the limit" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / csv).exists()

    def test_count_at_the_limit_is_read(self):
        # reading a document allocates nothing; the limit itself is a count
        rc = parse_config(
            "function: {kind: special, name: riemann}\n"
            f"action: {{count: {_COUNT_MAX}, t_grid: {{count: {_COUNT_MAX}}}}}\n"
        )
        assert rc.action["count"] == rc.action["t_grid"]["count"] == _COUNT_MAX

    def test_shell_cap_past_the_int64_lattice(self, tmp_path):
        # the cap's shell, 10^400 - 1, once reached the line route and raised OverflowError
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            f"action: {{s: 2.0, tol: 1.0e-8, shell_cap: {10**400}}}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 0, result.output
        with open(tmp_path / "eval.csv") as f:
            rows = list(csv.DictReader(f))
        assert [(r["shells_used"], r["certified"]) for r in rows] == [("99999999", "1")]

    def test_exit_code_numeric_error(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\naction: {s: 0.5}\n",
        )
        result = CliRunner().invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 3

    def test_missing_distribution_parameter_exits_2(self, tmp_path):
        # make_special_distribution once raised KeyError, a traceback with exit 1
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: binomial, params: {j: 2}}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 2, result.output
        assert "'big_k'" in result.output
        assert not (tmp_path / "eval.csv").exists()

    # the terms overflow on the way to the NumericError
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("function, s", [
        ("{kind: special, name: lerch_transcendent, params: {u: 1.0, q: 0.5}}", "-400.0"),
        ("{kind: shintani, d: 1, m: 1, r: 1, lambda: [[1.0]], u: [1.0], c: [[1.0]],\n"
         "  theta: {family: finite_support, params: {entries: [{n: [0], value: 1.0}, {n: [1000], value: 1.0}]}}}",
         "-200.0"),
    ])
    def test_non_finite_value_is_numeric_error(self, tmp_path, function, s):
        # both once wrote a nan value certified, with exit 0
        cfgp = self.write(
            tmp_path, f"function: {function}\naction: {{s: {s}}}\noutput: {{dir: '{tmp_path}'}}\n"
        )
        result = CliRunner().invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 3, result.output
        assert "not finite" in result.output
        assert not (tmp_path / "eval.csv").exists()

    def test_every_special_kind_parses(self):
        # the accepted names are the two constructors' tuples
        for name in SPECIAL_KINDS + SPECIAL_DISTRIBUTION_KINDS:
            rc = parse_config(f"function: {{kind: special, name: {name}}}\n")
            assert rc.special()[0] == name
        with pytest.raises(ConfigError, match="unknown special"):
            parse_config("function: {kind: special, name: zeta}\n")

    def test_negative_shell_cap_exits_2(self, tmp_path):
        # it once returned an uncertified shell-0 value
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            "action: {s: 2.0, tol: 1.0e-6, shell_cap: -5}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 2, result.output
        assert "shell_cap" in result.output
        assert not (tmp_path / "eval.csv").exists()

    def test_exit_code_noncertified(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            "action: {s: 1.5, tol: 1.0e-10, shell_cap: 1000}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 3
        assert (tmp_path / "eval.csv").exists()  # partial result still written

    def test_sample_deterministic(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            "action: {sigma: 2.0, delta: 1.0e-5, seed: 5, count: 2000}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        runner = CliRunner()
        assert runner.invoke(cli, ["sample", "--config", cfgp, "--quiet"]).exit_code == 0
        first = (tmp_path / "samples.csv").read_bytes()
        assert runner.invoke(cli, ["sample", "--config", cfgp, "--quiet"]).exit_code == 0
        assert (tmp_path / "samples.csv").read_bytes() == first

    def test_seed_override_changes_output(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            "action: {sigma: 2.0, delta: 1.0e-5, seed: 5, count: 2000}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        runner = CliRunner()
        runner.invoke(cli, ["sample", "--config", cfgp, "--quiet"])
        first = (tmp_path / "samples.csv").read_bytes()
        runner.invoke(cli, ["sample", "--config", cfgp, "--quiet", "--seed", "6"])
        assert (tmp_path / "samples.csv").read_bytes() != first

    def test_cf_schema(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            "action: {sigma: 2.0, delta: 1.0e-5, t_grid: {axis: 1, lo: -2.0, hi: 2.0, count: 5}}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        assert CliRunner().invoke(cli, ["cf", "--config", cfgp, "--quiet"]).exit_code == 0
        lines = (tmp_path / "cf.csv").read_text().splitlines()
        assert lines[0] == "t,re_f,im_f,abs_f"
        assert len(lines) == 6
        middle = lines[3].split(",")
        assert float(middle[0]) == 0.0
        assert float(middle[1]) == pytest.approx(1.0, abs=1e-4)

    def test_cf_second_axis(self, tmp_path):
        doc = {
            "function": {"kind": "special", "name": "euler_zagier",
                         "params": {"r": 2, "u": [1.0, 1.0]}},
            "action": {
                "sigma": [3.0, 2.5], "delta": 1e-4, "shell_cap": 10**6,
                "t_grid": {"axis": 2, "lo": -1.0, "hi": 1.0, "count": 3},
            },
            "output": {"dir": str(tmp_path)},
        }
        cfgp = self.write(tmp_path, yaml.safe_dump(doc))
        result = CliRunner().invoke(cli, ["cf", "--config", cfgp, "--quiet"])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "cf.csv").read_text().splitlines()
        assert len(lines) == 4
        mid = lines[2].split(",")
        assert float(mid[0]) == 0.0 and float(mid[1]) == pytest.approx(1.0, abs=1e-3)

    def test_cf_bad_axis_is_config_error(self, tmp_path):
        for axis in (0, 3):
            doc = {
                "function": {"kind": "special", "name": "euler_zagier",
                             "params": {"r": 2, "u": [1.0, 1.0]}},
                "action": {
                    "sigma": [3.0, 2.5], "delta": 1e-3, "shell_cap": 10**6,
                    "t_grid": {"axis": axis, "lo": -1.0, "hi": 1.0, "count": 3},
                },
                "output": {"dir": str(tmp_path)},
            }
            cfgp = self.write(tmp_path, yaml.safe_dump(doc))
            result = CliRunner().invoke(cli, ["cf", "--config", cfgp, "--quiet"])
            assert result.exit_code == 2, (axis, result.output)
            assert "axis" in result.output
            assert not (tmp_path / "cf.csv").exists()

    def test_negative_seed_is_config_error(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            "action: {sigma: 2.0, delta: 1.0e-4, seed: 5, count: 10}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["sample", "--config", cfgp, "--quiet", "--seed", "-1"])
        assert result.exit_code == 2 and "seed" in result.output
        cfgp = self.write(tmp_path, Path(cfgp).read_text().replace("seed: 5", "seed: -1"))
        result = CliRunner().invoke(cli, ["sample", "--config", cfgp, "--quiet"])
        assert result.exit_code == 2 and "seed" in result.output
        assert not (tmp_path / "samples.csv").exists()

    @pytest.mark.parametrize(
        "command, action, extra, csv",
        [
            ("eval", "{s: 2.0, tol: .nan}", [], "eval.csv"),
            ("eval", "{s: 2.0}", ["--tol", "nan"], "eval.csv"),
            ("dist", "{sigma: .nan, delta: 1.0e-4}", [], "atoms.csv"),
            ("dist", "{sigma: 2.0, delta: .nan}", [], "atoms.csv"),
        ],
    )
    def test_non_finite_input_is_config_error(self, tmp_path, command, action, extra, csv):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            f"action: {action}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, [command, "--config", cfgp, "--quiet", *extra])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / csv).exists()

    def test_dist_and_atoms_schema(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            "action: {sigma: 2.0, delta: 1.0e-4}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        assert CliRunner().invoke(cli, ["dist", "--config", cfgp, "--quiet"]).exit_code == 0
        lines = (tmp_path / "atoms.csv").read_text().splitlines()
        assert lines[0] == "loc_1,mass"
        top = lines[1].split(",")
        assert float(top[0]) == 0.0
        assert float(top[1]) == pytest.approx(6.0 / math.pi**2, abs=1e-3)

    def test_coeffs_dedekind(self, tmp_path):
        doc = {
            "function": euler_to_dict(dedekind_euler_config()),
            "action": {"coeff_limit": 10},
            "output": {"dir": str(tmp_path)},
        }
        cfgp = self.write(tmp_path, yaml.safe_dump(doc))
        assert CliRunner().invoke(cli, ["coeffs", "--config", cfgp, "--quiet"]).exit_code == 0
        lines = (tmp_path / "coeffs.csv").read_text().splitlines()
        got = [int(float(line.split(",")[1])) for line in lines[1:]]
        assert got == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]

    def test_levy_check(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            "action: {sigma: 2.0, prime_limit: 1000, power_cutoff: 30, tol: 1.0e-6,\n"
            "         t_grid: {axis: 1, lo: -1.0, hi: 1.0, count: 3}}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["levy-check", "--config", cfgp])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "levy_check.csv").read_text().splitlines()
        assert lines[0] == "t,re_exp_levy,im_exp_levy,re_ratio,im_ratio,abs_diff"
        diffs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(diffs) < 1e-3
        assert (tmp_path / "levy_measure.csv").exists()

    def test_levy_check_hurwitz_half(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: hurwitz, params: {u: 0.5}}\n"
            "action: {sigma: 2.0, prime_limit: 1000, power_cutoff: 30, tol: 1.0e-6,\n"
            "         t_grid: {axis: 1, lo: 0.5, hi: 1.5, count: 2}}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["levy-check", "--config", cfgp])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "levy_check.csv").read_text().splitlines()
        diffs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(diffs) < 1e-3  # drifted odd-prime sum tracks the cf ratio

    def test_levy_check_rejects_other_configs(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: hurwitz, params: {u: 0.7}}\n"
            "action: {sigma: 2.0}\n",
        )
        result = CliRunner().invoke(cli, ["levy-check", "--config", cfgp])
        assert result.exit_code == 2

    def test_zeros_scan_and_certificate(self, tmp_path):
        doc = {
            "function": {
                "kind": "special",
                "name": "binomial",
                "params": {"j": 2, "big_k": 1, "phi": math.e, "sigma": -1.0},
            },
            "action": {
                "sigma": [-1.0],
                "tol": 1e-10,
                "delta": 1e-10,
                "scan": {"axis": 1, "lo": 0.5, "hi": 6.0, "step": 0.05, "trigger": 0.3},
            },
            "output": {"dir": str(tmp_path)},
        }
        cfgp = self.write(tmp_path, yaml.safe_dump(doc))
        result = CliRunner().invoke(cli, ["zeros", "--config", cfgp])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "zeros.csv").exists()
        cert = (tmp_path / "certificate.txt").read_text()
        assert "NOT infinitely divisible" in cert

    @pytest.mark.parametrize("scan", [
        "{axis: 1, lo: .nan, hi: 6.0}", "{axis: 1, lo: 0.5, hi: .inf}", "{axis: 1, lo: 6.0, hi: 0.5}",
    ])
    def test_zeros_bad_scan_range_is_config_error(self, tmp_path, scan):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: binomial,\n"
            "           params: {j: 2, big_k: 1, phi: 2.718281828459045, sigma: -1.0}}\n"
            f"action: {{sigma: [-1.0], scan: {scan}}}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["zeros", "--config", cfgp])
        assert result.exit_code == 2, result.output
        assert "t_range" in result.output
        assert not (tmp_path / "zeros.csv").exists()

    def test_zeros_infinite_step_is_config_error(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: binomial,\n"
            "           params: {j: 2, big_k: 1, phi: 2.718281828459045, sigma: -1.0}}\n"
            "action: {sigma: [-1.0], scan: {axis: 1, lo: 0.5, hi: 6.0, step: .inf}}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["zeros", "--config", cfgp])
        assert result.exit_code == 2, result.output
        assert "step" in result.output
        assert not (tmp_path / "zeros.csv").exists()

    @pytest.mark.parametrize("command, grid, csv", [
        ("cf", "{lo: .nan}", "cf.csv"),
        ("cf", "{hi: .inf}", "cf.csv"),
        ("cf", "{count: -3}", "cf.csv"),
        ("cf", "{count: 0}", "cf.csv"),
        ("levy-check", "{lo: -.inf}", "levy_check.csv"),
    ])
    def test_bad_t_grid_is_config_error(self, tmp_path, command, grid, csv):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            f"action: {{sigma: 2.0, delta: 1.0e-3, prime_limit: 100, t_grid: {grid}}}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, [command, "--config", cfgp, "--quiet"])
        assert result.exit_code == 2, result.output
        assert "t_grid" in result.output
        assert not (tmp_path / csv).exists()

    def test_zeros_rectangle(self, tmp_path):
        doc = {
            "function": {
                "kind": "shintani",
                "d": 1, "m": 1, "r": 1,
                "lambda": [[1.0]], "u": [1.0], "c": [[1.0]],
                "theta": {
                    "family": "finite_support",
                    "params": {"entries": [{"n": [0], "value": 1.0}, {"n": [1], "value": -2.0}]},
                },
            },
            "action": {"rectangle": {"re_lo": 0.0, "re_hi": 2.0, "im_lo": -1.0, "im_hi": 1.0}},
            "output": {"dir": str(tmp_path)},
        }
        cfgp = self.write(tmp_path, yaml.safe_dump(doc))
        result = CliRunner().invoke(cli, ["zeros", "--config", cfgp])
        assert result.exit_code == 0, result.output
        assert "1" in result.output
        lines = (tmp_path / "zeros.csv").read_text().splitlines()
        assert lines[1].split(",")[-1] == "1"

    def _rectangle_doc(self, tmp_path, direction):
        """1 - 2 (n+1)^(-s_1) on C^2; its zero s_1 = 1 lies in the rectangle."""
        return {
            "function": {
                "kind": "shintani",
                "d": 2, "m": 1, "r": 1,
                "lambda": [[1.0]], "u": [1.0], "c": [[1.0, 0.0]],
                "theta": {
                    "family": "finite_support",
                    "params": {"entries": [{"n": [0], "value": 1.0}, {"n": [1], "value": -2.0}]},
                },
            },
            "action": {
                "rectangle": {"re_lo": 0.0, "re_hi": 2.0, "im_lo": -1.0, "im_hi": 1.0},
                "direction": direction,
            },
            "output": {"dir": str(tmp_path)},
        }

    def test_zeros_rectangle_direction_components(self, tmp_path):
        # one component is used on every axis, as for base
        cfgp = self.write(tmp_path, yaml.safe_dump(self._rectangle_doc(tmp_path, [1.0])))
        result = CliRunner().invoke(cli, ["zeros", "--config", cfgp])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "zeros.csv").read_text().splitlines()[1].split(",")[-1] == "1"
        (tmp_path / "zeros.csv").unlink()
        cfgp = self.write(tmp_path, yaml.safe_dump(self._rectangle_doc(tmp_path, [1.0, 0.0, 0.0])))
        result = CliRunner().invoke(cli, ["zeros", "--config", cfgp])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "zeros.csv").exists()

    def test_special_writes_config_and_comparison(self, tmp_path):
        doc = {
            "function": {
                "kind": "special",
                "name": "poisson",
                "params": {"j": 2, "rate": 0.0, "sigma": -1.0},
            },
            "action": {"delta": 1e-12, "t_grid": {"axis": 1, "lo": -3.0, "hi": 3.0, "count": 7}},
            "output": {"dir": str(tmp_path)},
        }
        cfgp = self.write(tmp_path, yaml.safe_dump(doc))
        result = CliRunner().invoke(cli, ["special", "--config", cfgp])
        assert result.exit_code == 0, result.output
        reparsed = parse_config((tmp_path / "special_config.yaml").read_text())
        assert reparsed.function_kind == "shintani"
        lines = (tmp_path / "cf_comparison.csv").read_text().splitlines()
        diffs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(diffs) < 1e-10

    def test_special_plain_function_writes_config(self, tmp_path):
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: hurwitz, params: {u: 0.5}}\n"
            f"output: {{dir: '{tmp_path}'}}\n",
        )
        result = CliRunner().invoke(cli, ["special", "--config", cfgp])
        assert result.exit_code == 0, result.output
        assert "hurwitz: configuration written to" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "special_config.yaml"]
        doc = yaml.safe_load((tmp_path / "special_config.yaml").read_text())
        assert doc == {"function": shintani_to_dict(make_special("hurwitz", u=0.5)),
                       "action": {}, "output": {"dir": str(tmp_path)}}

    def test_io_error_inside_a_run_exits_4(self, tmp_path):
        # the output directory is an existing file
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfgp = self.write(
            tmp_path,
            "function: {kind: special, name: riemann}\n"
            f"action: {{s: 2.0, tol: 1.0e-6}}\noutput: {{dir: '{blocker}'}}\n",
        )
        result = CliRunner().invoke(cli, ["eval", "--config", cfgp])
        assert result.exit_code == 4, result.output
        assert "i/o error" in result.output

    def test_missing_config_file(self):
        result = CliRunner().invoke(cli, ["eval", "--config", "/nonexistent.yaml"])
        assert result.exit_code == 2  # click usage error
