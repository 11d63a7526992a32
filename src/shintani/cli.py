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

from . import config_io, distributions, euler, series, zeros
from .config_io import RunConfig, emit_csv, parse_config, serialize_config
from .errors import CertificationError, ConfigError, NumericError, RegionError


class _Run:
    """One subcommand's run: its config, output directory and the files it
    has written."""

    def __init__(self, rc: RunConfig, out: Path, quiet: bool) -> None:
        self.rc, self.action, self.out, self.quiet = rc, rc.action, out, quiet
        self.written: list[Path] = []

    def say(self, message: str) -> None:
        if not self.quiet:
            click.echo(message)

    def write(self, name: str, text: str) -> Path:
        path = self.out / name
        path.write_text(text)
        self.written.append(path)
        return path

    def csv(self, name: str, header: list[str], rows) -> None:
        path = self.out / name
        emit_csv(header, rows, path)
        self.written.append(path)

    def config_sigma(self) -> tuple[series.ShintaniConfig, np.ndarray]:
        """The series config and the action's sigma for it."""
        config = _function_config(self.rc)
        return config, self.rc.sigma(config.d)

    def distribution(self, config: series.ShintaniConfig, sigma) -> distributions.ZetaDistribution:
        """The atom table at the action's delta and shell_cap."""
        return distributions.build_distribution(
            config, sigma, delta=self.action["delta"], shell_cap=self.action["shell_cap"]
        )


def _function_config(rc: RunConfig) -> series.ShintaniConfig:
    """A series config from either a shintani or special function section."""
    if rc.function_kind == "shintani":
        return rc.shintani_config()
    if rc.function_kind == "special":
        name, params = rc.special()
        if name in distributions.SPECIAL_DISTRIBUTION_KINDS:
            return distributions.make_special_distribution(name, **params).config
        return series.make_special(name, **params)
    raise ConfigError(f"subcommand needs a series function, got {rc.function_kind!r}")


def _eval(run: _Run) -> None:
    rc, action = run.rc, run.action
    if rc.function_kind == "euler":
        config = rc.euler_config()
        pt = rc.point("s", config.d)
        res = euler.evaluate_euler(config, pt, euler.sieve_primes(action["prime_limit"]))
    else:
        config = _function_config(rc)
        pt = rc.point("s", config.d)
        res = series.evaluate(config, pt, tol=action["tol"], shell_cap=action["shell_cap"])
    run.say(
        f"value = {res.value.real:.8f} + {res.value.imag:.8f}i"
        f"  tail <= {res.tail_bound:.3e}"
        f"  shells = {res.shells_used}  certified = {res.certified}"
    )
    run.csv(
        "eval.csv",
        ["re_value", "im_value", "tail_bound", "shells_used", "certified"],
        [[res.value.real, res.value.imag, res.tail_bound, res.shells_used, int(res.certified)]],
    )
    if not res.certified:
        raise CertificationError(
            f"tolerance {action['tol']} unreachable within shell_cap; "
            f"achieved bound {res.tail_bound:.3e} (partial result written)"
        )


def _cf(run: _Run) -> None:
    config, sig = run.config_sigma()
    axis, ts = run.rc.t_grid()
    dist = run.distribution(config, sig)
    values = distributions.atom_cf_grid(dist, axis, ts).tolist()
    rows = [[t, val.real, val.imag, abs(val)] for t, val in zip(ts, values)]
    run.csv("cf.csv", ["t", "re_f", "im_f", "abs_f"], rows)
    run.say(f"wrote {len(rows)} grid values (atom-table error <= {2 * dist.tail_mass_bound:.2e})")


def _dist(run: _Run) -> None:
    dist = run.distribution(*run.config_sigma())
    run.csv("atoms.csv", *dist.as_table())
    run.say(
        f"{dist.atom_count} atoms, mass sum = {float(np.sum(dist.masses)):.9f}, "
        f"unenumerated mass <= {dist.tail_mass_bound:.2e}"
    )


def _sample(run: _Run) -> None:
    dist = run.distribution(*run.config_sigma())
    batch = distributions.sample(dist, seed=run.action["seed"], count=run.action["count"])
    run.csv("samples.csv", *batch.as_table())
    run.say(f"{batch.count} samples, seed {batch.seed}, TV bias <= {batch.truncation:.2e}")


def _coeffs(run: _Run) -> None:
    config = run.rc.euler_config()
    limit = run.action["coeff_limit"]
    rows = []
    for n in range(1, limit + 1):
        a_n = euler.dirichlet_coefficient(config, n)
        rows.append([n, a_n.real, a_n.imag])
    run.csv("coeffs.csv", ["n", "re_a", "im_a"], rows)
    run.say(f"wrote A(1..{limit})")


def _levy_check(run: _Run) -> None:
    action = run.action
    config = _function_config(run.rc)
    odd = _levy_variant(config)
    sig = run.rc.sigma(config.d)
    sigma = float(sig[0])
    _, ts = run.rc.t_grid()
    logcf = euler.hurwitz_half_levy_logcf if odd else euler.riemann_levy_logcf
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
        rows.append([t, expv.real, expv.imag, ratio.value.real, ratio.value.imag, diff])
    run.csv(
        "levy_check.csv",
        ["t", "re_exp_levy", "im_exp_levy", "re_ratio", "im_ratio", "abs_diff"],
        rows,
    )
    measure = euler.levy_measure(sigma, action["prime_limit"], action["power_cutoff"], odd_only=odd)
    run.csv("levy_measure.csv", *measure.as_table())
    run.say(f"max |exp(levy) - ratio| over grid = {worst:.3e}")


def _zeros(run: _Run) -> None:
    rc, action = run.rc, run.action
    config = _function_config(rc)
    if action["rectangle"]:
        sides = ("re_lo", "re_hi", "im_lo", "im_hi")
        rect = tuple(action["rectangle"][side] for side in sides)
        origin = np.zeros(config.d)
        e_1 = series.ComplexPoint(np.eye(config.d)[0], origin)
        spec = zeros.SliceSpec(
            base=rc.point("base", config.d, default=series.ComplexPoint(origin, origin)),
            direction=rc.point("direction", config.d, default=e_1).values,
            rect=rect,
        )
        count = zeros.count_zeros_rectangle(
            config, spec, eval_tol=action["tol"], shell_cap=action["shell_cap"]
        )
        run.say(f"zeros in rectangle (with multiplicity): {count}")
        run.csv("zeros.csv", [*sides, "count"], [[*rect, count]])
        return
    scan = action["scan"]
    sig = rc.sigma(config.d)
    report = zeros.scan_cf_zeros(
        config, sig, t_axis=scan["axis"], t_range=(scan["lo"], scan["hi"]), step=scan["step"],
        tol=action["tol"], trigger=scan["trigger"], shell_cap=action["shell_cap"],
    )
    run.csv("zeros.csv", *report.as_table())
    run.say(f"candidates: {len(report.candidates)}, confirmed: {len(report.confirmed)}")
    if report.certificate:
        cert = zeros.non_id_certificate(report, run.distribution(config, sig))
        run.write("certificate.txt", cert)
        run.say("confirmed zero: certificate written (not infinitely divisible)")


def _special(run: _Run) -> None:
    name, params = run.rc.special()
    if name not in distributions.SPECIAL_DISTRIBUTION_KINDS:
        config = series.make_special(name, **params)
        path = run.write("special_config.yaml", _document(config, {}, run.out))
        run.say(f"{name}: configuration written to {path}")
        return
    sd = distributions.make_special_distribution(name, **params)
    run.write("special_config.yaml", _document(sd.config, {"sigma": [sd.sigma]}, run.out))
    dist = run.distribution(sd.config, [sd.sigma])
    run.csv("atoms.csv", *dist.as_table())
    _, ts = run.rc.t_grid()
    rows = []
    for t in ts:
        got = distributions.atom_cf(dist, [float(t)])
        want = complex(sd.cf(float(t)))
        rows.append([t, got.real, got.imag, want.real, want.imag, abs(got - want)])
    run.csv(
        "cf_comparison.csv",
        ["t", "re_cf_atoms", "im_cf_atoms", "re_cf_closed", "im_cf_closed", "abs_diff"],
        rows,
    )
    run.say(f"{name}: closed form {sd.closed_form}")


def _document(config: series.ShintaniConfig, action: dict, out: Path) -> str:
    """A config document of `config` with `action`, writing to `out`."""
    function = config_io.shintani_to_dict(config)
    doc = {"function": function, "action": action, "output": {"dir": str(out)}}
    return serialize_config(RunConfig(doc))


_COMMANDS = {  # subcommand -> (handler, help)
    "eval": (_eval, "Evaluate the series or product value with its certified tail bound."),
    "cf": (_cf, "Characteristic function over a t grid (CSV: t, re_f, im_f, abs_f)."),
    "dist": (_dist, "Atom table of the induced distribution (CSV: loc_1..loc_d, mass)."),
    "sample": (_sample, "Seeded inverse-CDF samples (CSV: x_1..x_d)."),
    "coeffs": (_coeffs, "Dirichlet coefficients A(n) of an Euler product (CSV: n, re_a, im_a)."),
    "levy-check": (_levy_check, "Compare exp of the compound-Poisson sum against the cf ratio."),
    "zeros": (_zeros, "Scan for cf zeros or count zeros in a rectangle; emit certificates."),
    "special": (_special, "Materialize a named construction (config, atoms, closed-form cf)."),
}
SUBCOMMANDS = tuple(_COMMANDS)


def run_command(subcommand: str, rc: RunConfig, out_dir=None, quiet: bool = False) -> list[Path]:
    """Execute one subcommand; returns the list of files written."""
    if subcommand not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; expected one of {SUBCOMMANDS}")
    out = Path(out_dir if out_dir is not None else rc.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = _Run(rc, out, quiet)
    _COMMANDS[subcommand][0](run)
    return run.written


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
        rc = parse_config(Path(config_path).read_text())
        if seed is not None:
            rc.data["action"]["seed"] = int(seed)
        if tol is not None:
            if not tol > 0:
                raise ConfigError(f"--tol must be positive, got {tol}")
            rc.data["action"]["tol"] = float(tol)
        run_command(subcommand, rc, out_dir=out_dir, quiet=quiet)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except (RegionError, CertificationError, NumericError) as exc:
        click.echo(f"numeric error: {exc}", err=True)
        sys.exit(3)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(4)


for _name in SUBCOMMANDS:
    def _make(name: str):
        @_common
        def _cmd(config_path, out_dir, seed, tol, quiet):
            _invoke(name, config_path, out_dir, seed, tol, quiet)
        _cmd.__name__ = name.replace("-", "_")
        return _cmd
    cli.command(name=_name, help=_COMMANDS[_name][1])(_make(_name))


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
