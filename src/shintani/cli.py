"""Command-line interface: one config document drives one subcommand.

Exit codes: 0 ok, 2 config error, 3 numeric error (region or tolerance),
4 I/O error.  All outputs are deterministic functions of the config
(including the seed), so identical configs produce byte-identical files.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np
import yaml

from . import config_io, distributions, euler, series, zeros
from .config_io import RunConfig, emit_csv, parse_config
from .errors import (
    CertificationError,
    ConfigError,
    NumericError,
    RegionError,
    ShintaniError,
)

SUBCOMMANDS = (
    "eval", "cf", "dist", "sample", "coeffs", "levy-check", "zeros", "special",
)


def _require(value, name: str):
    if value is None:
        raise ConfigError(f"action.{name} is required for this subcommand")
    return value


def _point_from_action(rc: RunConfig, key: str, d: int) -> series.ComplexPoint:
    raw = _require(rc.action.get(key), key)
    vals = [config_io._decode_number(v, f"action.{key}") for v in raw]
    if len(vals) == 1 and d > 1:
        vals = vals * d
    return series.as_point(np.asarray(vals, dtype=complex), d)


def _sigma_from_action(rc: RunConfig, d: int) -> np.ndarray:
    raw = _require(rc.action.get("sigma"), "sigma")
    vals = [float(v) for v in raw]
    if len(vals) == 1 and d > 1:
        vals = vals * d
    return series.as_sigma(vals, d)


def _function_config(rc: RunConfig) -> series.ShintaniConfig:
    """A series config from either a shintani or special function section."""
    if rc.function_kind == "shintani":
        return rc.shintani_config()
    if rc.function_kind == "special":
        name, params = rc.special()
        if name in ("delta", "binomial", "poisson"):
            sd = _special_distribution(rc)
            return sd.config
        return series.make_special(name, **params)
    raise ConfigError(f"subcommand needs a series function, got {rc.function_kind!r}")


def _special_distribution(rc: RunConfig) -> distributions.SpecialDistribution:
    name, params = rc.special()
    if name not in ("delta", "binomial", "poisson"):
        raise ConfigError(f"special {name!r} is a plain function, not a distribution")
    return distributions.make_special_distribution(name, **params)


def _grid(rc: RunConfig) -> tuple[int, np.ndarray]:
    g = rc.action["t_grid"]
    return int(g["axis"]), np.linspace(g["lo"], g["hi"], int(g["count"]))


def run_command(subcommand: str, rc: RunConfig, out_dir=None, quiet: bool = False) -> list[Path]:
    """Execute one subcommand; returns the list of files written."""
    out = Path(out_dir if out_dir is not None else rc.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    action = rc.action
    written: list[Path] = []

    def say(message: str) -> None:
        if not quiet:
            click.echo(message)

    if subcommand == "eval":
        if rc.function_kind == "euler":
            config = rc.euler_config()
            pt = _point_from_action(rc, "s", config.d)
            table = euler.sieve_primes(action["prime_limit"])
            res = euler.evaluate_euler(config, pt, table)
        else:
            config = _function_config(rc)
            pt = _point_from_action(rc, "s", config.d)
            res = series.evaluate(
                config, pt, tol=action["tol"], shell_cap=action["shell_cap"]
            )
        say(
            f"value = {res.value.real:.8f} + {res.value.imag:.8f}i"
            f"  tail <= {res.tail_bound:.3e}"
            f"  shells = {res.shells_used}  certified = {res.certified}"
        )
        path = out / "eval.csv"
        emit_csv(
            ["re_value", "im_value", "tail_bound", "shells_used", "certified"],
            [[res.value.real, res.value.imag, res.tail_bound, res.shells_used, int(res.certified)]],
            path,
        )
        written.append(path)
        if not res.certified:
            raise CertificationError(
                f"tolerance {action['tol']} unreachable within shell_cap; "
                f"achieved bound {res.tail_bound:.3e} (partial result written)"
            )
        return written

    if subcommand == "cf":
        config = _function_config(rc)
        sig = _sigma_from_action(rc, config.d)
        axis, ts = _grid(rc)
        dist = distributions.build_distribution(
            config, sig, delta=action["delta"], shell_cap=action["shell_cap"]
        )
        values = distributions.atom_cf_grid(dist, axis, ts).tolist()
        rows = [[t, val.real, val.imag, abs(val)] for t, val in zip(ts, values)]
        path = out / "cf.csv"
        emit_csv(["t", "re_f", "im_f", "abs_f"], rows, path)
        written.append(path)
        say(f"wrote {len(rows)} grid values (atom-table error <= {2 * dist.tail_mass_bound:.2e})")
        return written

    if subcommand == "dist":
        config = _function_config(rc)
        sig = _sigma_from_action(rc, config.d)
        dist = distributions.build_distribution(
            config, sig, delta=action["delta"], shell_cap=action["shell_cap"]
        )
        header, rows = dist.as_table()
        path = out / "atoms.csv"
        emit_csv(header, rows, path)
        written.append(path)
        say(
            f"{dist.atom_count} atoms, mass sum = {float(np.sum(dist.masses)):.9f}, "
            f"unenumerated mass <= {dist.tail_mass_bound:.2e}"
        )
        return written

    if subcommand == "sample":
        config = _function_config(rc)
        sig = _sigma_from_action(rc, config.d)
        dist = distributions.build_distribution(
            config, sig, delta=action["delta"], shell_cap=action["shell_cap"]
        )
        batch = distributions.sample(dist, seed=action["seed"], count=action["count"])
        header, rows = batch.as_table()
        path = out / "samples.csv"
        emit_csv(header, rows, path)
        written.append(path)
        say(f"{batch.count} samples, seed {batch.seed}, TV bias <= {batch.truncation:.2e}")
        return written

    if subcommand == "coeffs":
        config = rc.euler_config()
        limit = action["coeff_limit"]
        rows = []
        for n in range(1, limit + 1):
            a_n = euler.dirichlet_coefficient(config, n)
            rows.append([n, a_n.real, a_n.imag])
        path = out / "coeffs.csv"
        emit_csv(["n", "re_a", "im_a"], rows, path)
        written.append(path)
        say(f"wrote A(1..{limit})")
        return written

    if subcommand == "levy-check":
        config = _function_config(rc)
        odd = _levy_variant(config)
        sig = _sigma_from_action(rc, config.d)
        sigma = float(sig[0])
        _, ts = _grid(rc)
        logcf = (
            euler.hurwitz_half_levy_logcf if odd else euler.riemann_levy_logcf
        )
        rows = []
        worst = 0.0
        for t in ts:
            lev = logcf(sigma, float(t), action["prime_limit"], action["power_cutoff"])
            expv = complex(np.exp(lev.value))
            ratio = distributions.char_fn(
                config, sig, [float(t)], tol=action["tol"], shell_cap=action["shell_cap"]
            )
            diff = abs(expv - ratio.value)
            worst = max(worst, diff)
            rows.append(
                [t, expv.real, expv.imag, ratio.value.real, ratio.value.imag, diff]
            )
        path = out / "levy_check.csv"
        emit_csv(
            ["t", "re_exp_levy", "im_exp_levy", "re_ratio", "im_ratio", "abs_diff"],
            rows, path,
        )
        written.append(path)
        measure = euler.levy_measure(
            sigma, action["prime_limit"], action["power_cutoff"], odd_only=odd
        )
        header, mrows = measure.as_table()
        mpath = out / "levy_measure.csv"
        emit_csv(header, mrows, mpath)
        written.append(mpath)
        say(f"max |exp(levy) - ratio| over grid = {worst:.3e}")
        return written

    if subcommand == "zeros":
        config = _function_config(rc)
        if action.get("rectangle"):
            rect = action["rectangle"]
            base = (
                _point_from_action(rc, "base", config.d)
                if action.get("base")
                else series.ComplexPoint(np.zeros(config.d), np.zeros(config.d))
            )
            if action.get("direction"):
                direction = _point_from_action(rc, "direction", config.d).values
            else:
                direction = np.zeros(config.d, dtype=complex)
                direction[0] = 1.0
            spec = zeros.SliceSpec(
                base=base, direction=direction,
                rect=(rect["re_lo"], rect["re_hi"], rect["im_lo"], rect["im_hi"]),
            )
            count = zeros.count_zeros_rectangle(
                config, spec, eval_tol=action["tol"], shell_cap=action["shell_cap"]
            )
            say(f"zeros in rectangle (with multiplicity): {count}")
            path = out / "zeros.csv"
            emit_csv(
                ["re_lo", "re_hi", "im_lo", "im_hi", "count"],
                [[rect["re_lo"], rect["re_hi"], rect["im_lo"], rect["im_hi"], count]],
                path,
            )
            written.append(path)
            return written
        scan = action["scan"]
        sig = _sigma_from_action(rc, config.d)
        report = zeros.scan_cf_zeros(
            config, sig, t_axis=int(scan["axis"]),
            t_range=(scan["lo"], scan["hi"]), step=scan["step"],
            tol=action["tol"], trigger=scan["trigger"],
            shell_cap=action["shell_cap"],
        )
        header, rows = report.as_table()
        path = out / "zeros.csv"
        emit_csv(header, rows, path)
        written.append(path)
        say(
            f"candidates: {len(report.candidates)}, confirmed: {len(report.confirmed)}"
        )
        if report.certificate:
            dist = distributions.build_distribution(
                config, sig, delta=action["delta"], shell_cap=action["shell_cap"]
            )
            cert = zeros.non_id_certificate(report, dist)
            cpath = out / "certificate.txt"
            cpath.write_text(cert)
            written.append(cpath)
            say("confirmed zero: certificate written (not infinitely divisible)")
        return written

    if subcommand == "special":
        name, params = rc.special()
        path = out / "special_config.yaml"
        if name in ("delta", "binomial", "poisson"):
            sd = _special_distribution(rc)
            doc = {
                "function": config_io.shintani_to_dict(sd.config),
                "action": {"sigma": [sd.sigma]},
                "output": {"dir": str(out)},
            }
            path.write_text(yaml.safe_dump(doc, sort_keys=False, default_flow_style=None))
            written.append(path)
            dist = distributions.build_distribution(
                sd.config, [sd.sigma], delta=action["delta"], shell_cap=action["shell_cap"]
            )
            header, rows = dist.as_table()
            apath = out / "atoms.csv"
            emit_csv(header, rows, apath)
            written.append(apath)
            _, ts = _grid(rc)
            rows = []
            for t in ts:
                got = distributions.atom_cf(dist, [float(t)])
                want = complex(sd.cf(float(t)))
                rows.append(
                    [t, got.real, got.imag, want.real, want.imag, abs(got - want)]
                )
            cpath = out / "cf_comparison.csv"
            emit_csv(
                ["t", "re_cf_atoms", "im_cf_atoms", "re_cf_closed", "im_cf_closed", "abs_diff"],
                rows, cpath,
            )
            written.append(cpath)
            say(f"{name}: closed form {sd.closed_form}")
        else:
            config = series.make_special(name, **params)
            doc = {
                "function": config_io.shintani_to_dict(config),
                "action": {},
                "output": {"dir": str(out)},
            }
            path.write_text(yaml.safe_dump(doc, sort_keys=False, default_flow_style=None))
            written.append(path)
            say(f"{name}: configuration written to {path}")
        return written

    raise ConfigError(f"unknown subcommand {subcommand!r}; expected one of {SUBCOMMANDS}")


def _levy_variant(config: series.ShintaniConfig) -> bool:
    """False for the Riemann parameterization, True for Hurwitz(1/2)."""
    plain = (
        config.d == 1 and config.m == 1 and config.r == 1
        and float(config.lam[0, 0]) == 1.0 and float(config.c[0, 0]) == 1.0
        and config.theta.is_one
    )
    if plain and float(config.u[0]) == 1.0:
        return False
    if plain and float(config.u[0]) == 0.5:
        return True
    raise ConfigError(
        "levy-check supports the riemann and hurwitz(u=1/2) configurations only"
    )


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

@click.group(name="shintani")
def cli() -> None:
    """Shintani zeta functions, Euler products, and zeta distributions."""


def _common(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False), help="Config document.")(fn)
    fn = click.option("--out", "out_dir", default=None, type=click.Path(file_okay=False),
                      help="Output directory (overrides output.dir).")(fn)
    fn = click.option("--seed", default=None, type=int, help="Override action.seed.")(fn)
    fn = click.option("--tol", default=None, type=float, help="Override action.tol.")(fn)
    fn = click.option("--quiet", is_flag=True, default=False, help="Suppress stdout chatter.")(fn)
    return fn


def _invoke(subcommand: str, config_path: str, out_dir, seed, tol, quiet) -> None:
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(4)
    try:
        rc = parse_config(text)
        if seed is not None:
            rc.data["action"]["seed"] = int(seed)
        if tol is not None:
            if tol <= 0:
                raise ConfigError(f"--tol must be positive, got {tol}")
            rc.data["action"]["tol"] = float(tol)
        run_command(subcommand, rc, out_dir=out_dir, quiet=quiet)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except (RegionError, CertificationError, NumericError) as exc:
        click.echo(f"numeric error: {exc}", err=True)
        sys.exit(3)
    except ShintaniError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(4)


_HELP = {
    "eval": "Evaluate the series or product value with its certified tail bound.",
    "cf": "Characteristic function over a t grid (CSV: t, re_f, im_f, abs_f).",
    "dist": "Atom table of the induced distribution (CSV: loc_1..loc_d, mass).",
    "sample": "Seeded inverse-CDF samples (CSV: x_1..x_d).",
    "coeffs": "Dirichlet coefficients A(n) of an Euler product (CSV: n, re_a, im_a).",
    "levy-check": "Compare exp of the compound-Poisson sum against the cf ratio.",
    "zeros": "Scan for cf zeros or count zeros in a rectangle; emit certificates.",
    "special": "Materialize a named construction (config, atoms, closed-form cf).",
}

for _name in SUBCOMMANDS:
    def _make(name: str):
        @_common
        def _cmd(config_path, out_dir, seed, tol, quiet):
            _invoke(name, config_path, out_dir, seed, tol, quiet)
        _cmd.__name__ = name.replace("-", "_")
        return _cmd
    cli.command(name=_name, help=_HELP[_name])(_make(_name))


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
