"""The cli-cold workload: one fresh ``python -m shintani.cli`` process per op.

Users of the CLI pay interpreter start-up, imports, cold library caches and
first-call page faults on every command; this workload is the only one that
measures them, together with YAML parsing and CSV emission.  Configs are
written from the seed.  Every op checks its exit code and its CSV contents
against a reference, and the bytes of every file it writes must equal those
of the reference pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp
import numpy as np
import yaml

from measure import Outcome, failed
from ops import Op, draw_poly_rect, expect, within

HERE = Path(__file__).resolve().parent
CHILD = HERE / "cli_child.py"
mp.mp.dps = 30


@dataclass(frozen=True)
class CliResult:
    code: int
    files: dict  # file name -> bytes
    stderr: str


def _rows(data: bytes) -> tuple[list[str], list[list[float]]]:
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader)
    return header, [[float(x) for x in row] for row in reader]


def _chi4(n: int) -> int:
    return (0, 1, 0, -1)[n % 4]


def dedekind_coefficient(n: int) -> int:
    """A(n) of zeta(s) L(s, chi_-4): sum of chi_-4 over the divisors of n."""
    return sum(_chi4(d) for d in range(1, n + 1) if n % d == 0)


class CliCold:
    name = "cli-cold"
    calibration = ("calls",)  # interpreter start-up and imports track the small-call kernel

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.traced = False
        self.child_summaries: list[dict] = []
        self.calls = 0
        g = random.Random(seed)
        self.s_eval = 3.0 + g.uniform(0.0, 0.5)
        self.s_capped = 1.5 + g.uniform(0.0, 0.05)
        self.s_euler = 2.5 + g.uniform(0.0, 0.5)
        self.s_mult = 3.0 + g.uniform(0.0, 0.5)
        self.sigma = 2.0 + g.uniform(0.0, 0.005)
        self.cf_lo = -g.uniform(5.0, 10.0)
        self.cf_hi = g.uniform(5.0, 10.0)
        self.sample_seed = g.randrange(2**31)
        self.levy_sigma = 2.0 + g.uniform(0.0, 0.2)
        self.coeff_limit = 300 + g.randrange(100)
        self.binom_sigma = -g.uniform(0.8, 1.5)
        self.poly, self.rect, self.inside = draw_poly_rect(g)

    # -- configs ---------------------------------------------------------------

    def configure(self) -> None:
        """Write one YAML document per op."""
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        special = lambda name, **params: {"kind": "special", "name": name, "params": params}  # noqa: E731
        chi4_product = {
            "kind": "euler", "m": 2, "d": 1, "a": [[1.0], [1.0]],
            "alpha": {"rule": "list", "params": {"items": [
                {"rule": "constant", "params": {"value": 1.0}},
                {"rule": "character", "params": {"mod": 4, "table": [0.0, 1.0, 0.0, -1.0]}},
            ]}},
        }
        a0, a1, a3 = self.poly
        poly = {
            "kind": "shintani", "d": 1, "m": 1, "r": 1, "lambda": [[1.0]], "u": [1.0], "c": [[1.0]],
            "theta": {"family": "finite_support", "params": {"entries": [
                {"n": [0], "value": a0}, {"n": [1], "value": a1}, {"n": [3], "value": a3},
            ]}},
        }
        two_rules = dict(poly, theta={"family": "multiplicative_product", "params": {
            "coords": [chi4_product["alpha"]["params"]["items"]], "growth": 0.05,
        }})
        riemann = special("riemann")
        docs = {
            "eval": (riemann, {"s": [self.s_eval], "tol": 1e-8}),
            "eval_capped": (riemann, {"s": [self.s_capped], "tol": 1e-8, "shell_cap": 10**6}),
            "eval_euler": (chi4_product, {"s": [self.s_euler], "prime_limit": 10**4}),
            "eval_mult": (two_rules, {"s": [self.s_mult], "tol": 1e-9}),
            "eval_ez": (special("euler_zagier", r=2, u=[0.0, 0.0]), {"s": [3.0, 2.0], "tol": 1e-6}),
            "dist": (riemann, {"sigma": [self.sigma], "delta": 1e-5}),
            "cf": (riemann, {"sigma": [self.sigma], "delta": 1e-4,
                             "t_grid": {"axis": 1, "lo": self.cf_lo, "hi": self.cf_hi, "count": 41}}),
            "sample": (riemann, {"sigma": [self.sigma], "delta": 1e-4, "count": 20000,
                                 "seed": self.sample_seed}),
            "coeffs": (chi4_product, {"coeff_limit": self.coeff_limit}),
            "levy": (riemann, {"sigma": [self.levy_sigma], "tol": 1e-6, "prime_limit": 10**4,
                               "power_cutoff": 40,
                               "t_grid": {"axis": 1, "lo": -2.0, "hi": 2.0, "count": 5}}),
            "zeros_scan": (
                special("binomial", j=2, big_k=1, phi=math.exp(-self.binom_sigma), sigma=self.binom_sigma),
                {"sigma": [self.binom_sigma], "tol": 1e-10, "delta": 1e-6,
                 "scan": {"axis": 1, "lo": 0.5, "hi": 6.0, "step": 0.05, "trigger": 0.2}},
            ),
            "zeros_rect": (poly, {"tol": 1e-9, "rectangle": dict(zip(("re_lo", "re_hi", "im_lo", "im_hi"),
                                                                       self.rect))}),
        }
        self.configs = {}
        for name, (function, action) in docs.items():
            path = cfg_dir / f"{name}.yaml"
            path.write_text(yaml.safe_dump({"function": function, "action": action}, sort_keys=False))
            self.configs[name] = path

    # -- running ---------------------------------------------------------------

    def _invoke(self, subcommand: str, config: str) -> CliResult:
        self.calls += 1
        out = self.workdir / f"out{self.calls}"
        args = [subcommand, "--config", str(self.configs[config]), "--out", str(out), "--quiet"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        if self.traced:
            trace_file = self.workdir / f"trace{self.calls}.json"
            cmd = [sys.executable, str(CHILD), str(trace_file), *args]
        else:
            cmd = [sys.executable, "-m", "shintani.cli", *args]
        proc = subprocess.run(cmd, env=env, cwd=self.root, capture_output=True, timeout=150)
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        if self.traced:
            if trace_file.is_file():
                self.child_summaries.append(json.loads(trace_file.read_text()))
                trace_file.unlink()
            else:
                self.child_summaries.append({"missing": True})
        return CliResult(proc.returncode, files, proc.stderr.decode(errors="replace")[-400:])

    def ops(self) -> list[Op]:
        def op(name, subcommand, config, code, check):
            def judged(res: CliResult, ctx) -> Outcome:
                if res.code != code:
                    return failed(f"exit {res.code}, expected {code}: {res.stderr.strip()}")
                return check(res)

            return Op(name=f"cli {subcommand} {name}",
                      run=lambda ctx: self._invoke(subcommand, config), check=judged)

        zeta_ref = complex(mp.zeta(self.s_eval))
        capped_ref = complex(mp.zeta(self.s_capped))
        euler_ref = complex(mp.zeta(self.s_euler) * mp.dirichlet(self.s_euler, [0, 1, 0, -1]))
        mult_ref = complex(mp.zeta(self.s_mult) * mp.dirichlet(self.s_mult, [0, 1, 0, -1]))
        ez_ref = float(3 * mp.zeta(2) * mp.zeta(3) - mp.mpf(11) / 2 * mp.zeta(5))
        zeta_sigma = float(mp.zeta(self.sigma))
        return [
            op(f"riemann s={self.s_eval!r} tol=1e-8", "eval", "eval", 0,
               lambda r: _check_eval_csv(r, zeta_ref, 1e-8, float(mp.zeta(self.s_eval)), True)),
            op(f"riemann s={self.s_capped!r} tol=1e-8 cap=1e6 (uncertified)", "eval", "eval_capped", 3,
               lambda r: _check_eval_csv(r, capped_ref, 1e-8, float(mp.zeta(self.s_capped)), False)),
            op(f"euler zeta*L(chi_-4) s={self.s_euler!r}", "eval", "eval_euler", 0,
               lambda r: _check_eval_csv(r, euler_ref, None, float(mp.zeta(self.s_euler)) ** 2, True)),
            op(f"multiplicative (1, chi_-4) s={self.s_mult!r} tol=1e-9", "eval", "eval_mult", 0,
               lambda r: _check_eval_csv(r, mult_ref, 1e-9, float(mp.zeta(self.s_mult)) ** 2, True)),
            op("euler_zagier (3,2) tol=1e-6", "eval", "eval_ez", 0,
               lambda r: _check_eval_csv(r, ez_ref, 1e-6, ez_ref, True)),
            op(f"riemann sigma={self.sigma!r} delta=1e-5", "dist", "dist", 0,
               lambda r: _check_atoms(r, 1e-5, zeta_sigma)),
            op(f"riemann t=[{self.cf_lo:.3f}, {self.cf_hi:.3f}] delta=1e-4", "cf", "cf", 0,
               lambda r: self._check_cf(r, 1e-4)),
            op(f"riemann count=20000 seed={self.sample_seed}", "sample", "sample", 0, _check_samples),
            op(f"zeta*L(chi_-4) limit={self.coeff_limit}", "coeffs", "coeffs", 0,
               lambda r: _check_coeffs(r, self.coeff_limit)),
            op(f"riemann sigma={self.levy_sigma!r}", "levy-check", "levy", 0,
               lambda r: self._check_levy(r, 1e-6)),
            op(f"binomial p=1/2 sigma={self.binom_sigma!r}", "zeros", "zeros_scan", 0, _check_scan),
            op(f"poly{self.poly!r} rect={self.rect!r}", "zeros", "zeros_rect", 0,
               lambda r: _check_count(r, self.inside)),
        ]

    def _check_cf(self, res: CliResult, delta: float) -> Outcome:
        _, rows = _rows(res.files["cf.csv"])
        zs = mp.zeta(self.sigma)
        for t, re, im, _ in rows:
            ok, detail = within(complex(re, im), complex(mp.zeta(mp.mpc(self.sigma, t)) / zs), 2 * delta, 1.0)
            if not ok:
                return failed(f"t={t}: {detail}")
        return expect(len(rows) == 41, f"{len(rows)} grid values")

    def _check_levy(self, res: CliResult, tol: float) -> Outcome:
        _, rows = _rows(res.files["levy_check.csv"])
        zs = float(mp.zeta(self.levy_sigma))
        allowed = 2.0 * tol / (zs - tol)  # char_fn's quotient-rule bound with |f| <= 1
        for t, ere, eim, rre, rim, diff in rows:
            ref = complex(mp.zeta(mp.mpc(self.levy_sigma, t)) / zs)
            ok, detail = within(complex(rre, rim), ref, allowed, 1.0)
            if not ok:
                return failed(f"ratio at t={t}: {detail}")
            if abs(abs(complex(ere, eim) - complex(rre, rim)) - diff) > 1e-15:
                return failed(f"abs_diff column at t={t} disagrees with its columns")
        return expect(len(rows) == 5 and "levy_measure.csv" in res.files, f"{len(rows)} grid values")


def _check_eval_csv(res: CliResult, ref: complex, tol, scale: float, want_certified: bool) -> Outcome:
    _, rows = _rows(res.files["eval.csv"])
    re, im, bound, _, certified = rows[0]
    ok, detail = within(complex(re, im), ref, bound, scale)
    if not ok:
        return failed(detail, tol is not None)
    if bool(certified) != want_certified or (tol is not None and certified and bound > tol):
        return failed(f"certified={int(certified)} with bound {bound:.3e}", tol is not None)
    if tol is None:
        return Outcome(ok=True, detail=detail)
    return Outcome(ok=True, certifiable=True, certified=bool(certified), detail=detail)


def _check_atoms(res: CliResult, delta: float, zeta_sigma: float) -> Outcome:
    text = res.files["atoms.csv"].decode()
    header, body = text.split("\n", 1)
    table = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float).reshape(-1, 2)
    total = math.fsum(table[:, 1].tolist())
    # mass of n = 1 is 1/Z_partial with zeta - Z_partial <= delta * Z_partial
    ok, detail = within(table[0, 1], 1.0 / zeta_sigma, delta / zeta_sigma, 1.0)
    return expect(
        header == "loc_1,mass" and table[0, 0] == 0.0 and ok and abs(total - 1.0) <= 1e-12,
        f"{len(table)} atoms, first mass {detail}, mass sum - 1 = {total - 1.0:.1e}",
        certifiable=True,
    )


def _check_samples(res: CliResult) -> Outcome:
    _, rows = _rows(res.files["samples.csv"])
    off = max(abs(math.exp(-x) - round(math.exp(-x))) / math.exp(-x) for (x,) in rows)
    return expect(len(rows) == 20000 and off <= 1e-12, f"{len(rows)} samples at -log n (rel. off {off:.1e})")


def _check_coeffs(res: CliResult, limit: int) -> Outcome:
    _, rows = _rows(res.files["coeffs.csv"])
    bad = [int(n) for n, re, im in rows if re != dedekind_coefficient(int(n)) or im != 0.0]
    return expect(len(rows) == limit and not bad, f"{len(rows)} coefficients, mismatches at {bad[:5]}")


def _check_scan(res: CliResult) -> Outcome:
    _, rows = _rows(res.files["zeros.csv"])
    at_pi = [r for r in rows if abs(r[0] - math.pi) <= 1e-8 and abs(r[1]) <= 1e-8]
    cert = res.files.get("certificate.txt", b"").decode()
    return expect(bool(at_pi) and "NOT infinitely divisible" in cert,
                  f"{len(rows)} candidates, zero at pi found: {bool(at_pi)}", certifiable=True)


def _check_count(res: CliResult, inside: int) -> Outcome:
    _, rows = _rows(res.files["zeros.csv"])
    return expect(int(rows[0][4]) == inside, f"counted {int(rows[0][4])}, roots give {inside}")

