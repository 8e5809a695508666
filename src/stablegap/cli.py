"""Command-line interface: spectra, gap checks, Monte Carlo runs, reports.

Exit codes: 0 success, 2 invalid input or unsupported configuration (an
output path in a missing directory, or a failed write, among them), 3
numeric budget or estimation failure, or out of memory (a basis too large
to allocate). All file outputs are written atomically (temp file + rename),
UTF-8, with sorted JSON keys, a top-level "schema": 1, and a full echo of
the resolved configuration; reruns with the same arguments (and seed, for
stochastic commands) are byte-identical. Each handler imports the library
module that it alone runs (steklov, montecarlo, bounds), so a subcommand
never loads the modules of the others.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import tempfile
import time

import numpy as np

from ._quad import tensor_points
from .errors import (
    EstimationError,
    NumericalBudgetError,
    StableGapError,
    UnsupportedConfigurationError,
    ValidationError,
    require_alpha,
)
from .eigensolver import solve_spectrum, spectral_basis
from .geometry import Domain

_GAP_REL_TOL = 0.05  # gap-check passes below this relative error of the identity


def _floats(text):
    """Comma-separated floats; ValidationError on an entry that is not one."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from None


def parse_domain(text):
    """Domain from JSON or shorthand: interval:a,b | intervals:a,b,c,d |
    rect:x1lo,x1hi,x2lo,x2hi | disk:cx,cy,r."""
    text = text.strip()
    if text.startswith("{"):
        return Domain.from_json(text)
    try:
        kind, _, rest = text.partition(":")
        vals = _floats(rest) if rest else []
        if kind == "interval" and len(vals) == 2:
            return Domain.interval(*vals)
        if kind == "intervals" and len(vals) >= 4 and len(vals) % 2 == 0:
            return Domain.interval_union(
                [tuple(vals[i : i + 2]) for i in range(0, len(vals), 2)]
            )
        if kind == "rect" and len(vals) == 4:
            return Domain.rectangle(vals[0], vals[1], vals[2], vals[3])
        if kind == "disk" and len(vals) == 3:
            return Domain.disk(vals[0], vals[1], vals[2])
    except ValidationError as exc:
        raise ValidationError(f"bad domain spec {text!r}: {exc}")
    raise ValidationError(f"bad domain spec {text!r}")


def _output_dir(path):
    return os.path.dirname(os.path.abspath(path))


def _check_output_dirs(args):
    """ValidationError unless the directory of every output file that args
    name exists, so that a bad path fails before any solve or simulation."""
    paths = [getattr(args, name, None) for name in ("out", "csv")]
    if getattr(args, "plot_prefix", None):
        paths.append(args.plot_prefix + "_lower.dat")
    for path in filter(None, paths):
        if not os.path.isdir(_output_dir(path)):
            raise ValidationError(f"no directory {_output_dir(path)} to write {path} in")


def _write_atomic(path, data):
    # an OSError (no permission, a full disk, a directory removed since
    # _check_output_dirs) is a ValidationError: exit 2, no traceback
    try:
        fd, tmp = tempfile.mkstemp(dir=_output_dir(path), prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
                f.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit_columns(rows, path, header=None):
    lines = []
    if header:
        lines.append("# " + " ".join(header))
    for row in rows:
        lines.append(" ".join(f"{v:.12g}" for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


class _Run:
    """The record of one subcommand run: the echo of its resolved
    configuration, the wall time of each stage, and the output. The stage
    times go to one stderr line, never into the JSON, so reruns stay
    byte-identical."""

    def __init__(self, args, domain, **config):
        self.command, self.out = args.command, args.out
        self.config = {"command": args.command.replace("-", "_"), "alpha": args.alpha,
                       "domain": domain.to_json() if domain is not None else None, **config}
        self.stages = []

    @contextlib.contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        yield
        self.stages.append(f"{name} {time.perf_counter() - t0:.3f} s")

    def emit(self, body, note=""):
        """The stage line (when a stage ran), then {"schema": 1, "config":
        ..., **body} as JSON to --out or stdout."""
        if self.stages:
            sys.stderr.write(f"{self.command}: " + ", ".join(self.stages) + note + "\n")
        text = json.dumps({"schema": 1, "config": self.config, **body},
                          sort_keys=True, indent=2) + "\n"
        if self.out:
            _write_atomic(self.out, text)
        else:
            sys.stdout.write(text)


def cmd_eig(args):
    domain = parse_domain(args.domain)
    # the modes reported are the first --n-report of the basis, which is
    # built without assembly
    size = spectral_basis(domain, args.n).size
    top = min(args.n_report, size)
    if top < 2:
        raise ValidationError(f"lambda2 needs two reported modes, got {top} (--n {args.n}:"
                              f" basis size {size}, --n-report {args.n_report})")
    if args.csv and not 1 <= args.csv_mode <= top:
        raise ValidationError(f"--csv-mode {args.csv_mode} outside 1..{top}"
                              f" (--n-report {args.n_report}, basis size {size})")
    run = _Run(args, domain, n=args.n, n_report=args.n_report)
    with run.stage("solve"):
        result = solve_spectrum(domain, args.alpha, n_basis=args.n, n_report=args.n_report)
    run.emit({
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "symmetry": list(result.symmetry),
        "star_index": result.star_index,
        "lambda_gap": result.lambda2 - result.lambda1,
    })
    if args.csv:
        n = 512 if domain.dim == 1 else 64
        pts = tensor_points([np.linspace(lo, hi, n) for lo, hi in domain.bounding_box()])
        phi = result.eigenfunction(args.csv_mode)  # a reported mode, checked before the solve
        _emit_columns(np.column_stack([pts, phi(pts)]), args.csv)
    return 0


def cmd_gap_check(args):
    from . import steklov

    if args.alpha != 1.0:
        raise UnsupportedConfigurationError("gap-check extensions require alpha = 1")
    domain = parse_domain(args.domain)
    # each flag given replaces its own field of the per-dimension default box
    given = {k: v for k in ("eps", "t_max", "x_max") if (v := getattr(args, k)) is not None}
    trunc = dataclasses.replace(steklov.default_truncation(domain.dim), **given)
    steklov.check_truncation(trunc, domain)  # before the solve, which a bad box would waste
    mode = 2 if args.mode is None else args.mode  # the default, star_index or 2, is >= 2
    if mode < 2:
        raise ValidationError(f"--mode {mode} < 2: mode 1 has no gap to lambda_1")
    size = spectral_basis(domain, args.n).size  # every mode of the basis is reported
    if mode > size:
        raise ValidationError(f"--mode {mode} outside 2..{size} (--n {args.n}: basis size {size})")
    run = _Run(args, domain, n=args.n, truncation=[trunc.eps, trunc.t_max, trunc.x_max])
    with run.stage("solve"):
        result = solve_spectrum(domain, args.alpha, n_basis=args.n)
    run.config["mode"] = n = args.mode if args.mode is not None else (result.star_index or 2)
    with run.stage("gap identity"):
        chk = steklov.gap_identity_check(result, n, trunc=trunc)
    if chk["tail_bound"] > 0.01 * chk["lhs"]:
        raise NumericalBudgetError(
            f"truncation tail bound {chk['tail_bound']:.3g} exceeds 1% of the gap"
        )
    with run.stage("d01"):
        d01 = steklov.d01_lower_bound_check(result, trunc=trunc) if result.star_index else None
    # the engine's cost goes to stderr with the stage times, never into the JSON
    tallies = [c["faddeeva_entries"] for c in (chk, d01) if c]
    evaluated, skipped = (sum(t[k] for t in tallies) for k in ("evaluated", "skipped"))
    run.emit({
        "lambda_gap": chk["lhs"],
        "Q_value": chk["rhs"],
        "relative_error": chk["relative_error"],
        "tail_bound": chk["tail_bound"],
        "constant_field_Q": chk["constant_field_Q"],
        "d01_integral": d01["simplified_integral"] if d01 else None,
        "pass": bool(chk["relative_error"] < _GAP_REL_TOL and (d01 is None or d01["pass"])),
    }, note=f"; extension engine workers {steklov.engine_workers(domain.dim)}; "
            f"Faddeeva entries {evaluated} evaluated, {skipped} skipped")
    return 0


def cmd_mc(args):
    from . import montecarlo as mc

    domain = parse_domain(args.domain)
    start = _floats(args.start)
    configs = {
        label: mc.McConfig(
            alpha=args.alpha, paths=args.paths, dt=dt, t_max=args.t_max, seed=args.seed,
        )
        for label, dt in (("dt", args.dt), ("dt_half", args.dt / 2))
    }
    # the cheap checks, then the Galerkin cross-check: a configuration that
    # any of them rejects exits before a path is simulated
    for cfg in configs.values():
        cfg.validate()
    x = mc.start_point(domain, start)
    run = _Run(
        args, domain, paths=args.paths, dt=args.dt, t_max=args.t_max, seed=args.seed,
        start=start, record_stride=mc.McConfig.record_stride,
        streams=mc.stream_count(configs["dt"]), bit_generator=mc.BIT_GENERATOR.__name__,
        draw_entries=mc.DRAW_ENTRIES,
    )
    n = 256 if domain.dim == 1 else 24
    with run.stage("galerkin solve"):
        lam_hat = float(solve_spectrum(domain, args.alpha, n_basis=n).lambda1)
    gap_star = domain.summarize().symmetric_x1 and start[0] > 0
    estimates = {}
    curves = {}
    for label, cfg in configs.items():
        with run.stage(f"survival {label}"):
            curve = mc.survival_curve(domain, x, cfg)
        est = mc.estimate_lambda1(curve)
        entry = {"config": cfg.to_json(), "lambda1": est.to_json()}
        if gap_star:
            try:
                entry["gap_star"] = mc.estimate_gap_star(domain, curve).to_json()
            except EstimationError as exc:
                entry["gap_star"] = {"error": str(exc)}
        estimates[label] = entry
        curves[label] = curve
    # the monitoring bias shows as the lambda1 shift from dt to dt/2
    coarse, fine = estimates["dt"]["lambda1"], estimates["dt_half"]["lambda1"]
    galerkin = {
        "lambda1": lam_hat,
        "n_basis": n,
        "z_score": (coarse["value"] - lam_hat) / coarse["stderr"] if coarse["stderr"] > 0 else None,
    }
    run.emit({
        "estimates": estimates,
        "galerkin": galerkin,
        "dt_refinement": {
            "lambda1_delta": fine["value"] - coarse["value"],
            "stderr": float(np.hypot(fine["stderr"], coarse["stderr"])),
        },
    })
    if args.csv:
        _emit_columns(curves["dt"].rows(), args.csv, header=("t", "survival", "stderr"))
    return 0


def cmd_report(args):
    from . import bounds as bounds_mod

    require_alpha(args.alpha)
    if args.n is not None and args.n < 1:
        raise ValidationError("--n must be >= 1")
    domain = parse_domain(args.domain) if args.domain else None
    if domain is not None and args.n is not None and spectral_basis(domain, args.n).size < 2:
        raise ValidationError(f"lambda2 needs two modes, got 1 (--n {args.n}: basis size 1)")
    if (args.sweep is None) != (args.plot_prefix is None):
        raise ValidationError("--sweep and --plot-prefix must be given together")
    if args.sweep is not None and args.n is not None and args.n < 2:
        # a sweep rectangle has an x1-antisymmetric mode only at n >= 2 per axis
        raise ValidationError(f"--sweep needs --n >= 2, got --n {args.n}")
    sweep = _floats(args.sweep) if args.sweep is not None else []
    if not all(1 <= L < np.inf for L in sweep):  # rectangle_gap_lower needs L >= 1; NaN fails too
        raise ValidationError(f"--sweep half-lengths must be finite and >= 1, got {args.sweep!r}")
    run = _Run(args, domain, n=args.n, sweep=args.sweep)
    result = None  # the main domain's solve, reused by a sweep rectangle equal to it
    if domain is not None:
        lam1 = None
        spectrum = None
        if args.n is not None:
            with run.stage("solve"):
                result = solve_spectrum(domain, args.alpha, n_basis=args.n)
            lam1 = float(result.lambda1)
            spectrum = {
                "eigenvalues": [float(v) for v in result.eigenvalues],
                "star_index": result.star_index,
                "gap": result.lambda2 - result.lambda1,
                "gap_star": float(result.lambda_star - result.lambda1)
                if result.star_index else None,
            }
        report = bounds_mod.build_report(domain, alpha=args.alpha, lambda1=lam1)
        body = {"report": report.to_json(), "spectrum": spectrum}
        sys.stderr.write(bounds_mod.render_table(report) + "\n")
    else:
        body = {"constants": {
            f"d={d}": dict(zip(("C", "C_prime"), bounds_mod.main_gap_constants(d)))
            for d in (1, 2, 3)
        }}
    if sweep:
        with run.stage("sweep"):
            lower_rows, upper_rows, computed_rows = [], [], []
            for L in sweep:
                dom = Domain.rectangle(-L, L, -1, 1)
                lower_rows.append((L, bounds_mod.rectangle_gap_lower(L)))
                upper_rows.append((L, bounds_mod.gap_upper(2, 1.0, args.alpha)))
                if args.n is not None:
                    same = result is not None and dom == domain
                    r = result if same else solve_spectrum(dom, args.alpha, n_basis=args.n)
                    computed_rows.append((L, float(r.lambda_star - r.lambda1)))
        _emit_columns(lower_rows, args.plot_prefix + "_lower.dat", header=("L", "gap_lower"))
        _emit_columns(upper_rows, args.plot_prefix + "_upper.dat", header=("L", "gap_upper"))
        if computed_rows:
            _emit_columns(computed_rows, args.plot_prefix + "_computed.dat",
                          header=("L", "gap_star"))
    run.emit(body)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="stablegap",
        description="Spectra and spectral-gap bounds of killed stable processes.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options of every subcommand
    common.add_argument("--alpha", type=float, default=1.0)
    common.add_argument("--out")

    eig = sub.add_parser("eig", parents=[common], help="solve the Dirichlet spectrum")
    eig.add_argument("--domain", required=True)
    eig.add_argument("--n", type=int, default=256)
    eig.add_argument("--n-report", type=int, default=8)
    eig.add_argument("--csv", help="dump an eigenfunction as columns")
    eig.add_argument("--csv-mode", type=int, default=1)
    eig.set_defaults(func=cmd_eig)

    gap = sub.add_parser("gap-check", parents=[common], help="verify the variational gap identity")
    gap.add_argument("--domain", required=True)
    gap.add_argument("--n", type=int, default=256)
    gap.add_argument("--mode", type=int)
    gap.add_argument("--eps", type=float)
    gap.add_argument("--t-max", type=float)
    gap.add_argument("--x-max", type=float)
    gap.set_defaults(func=cmd_gap_check)

    run = sub.add_parser("mc", parents=[common], help="Monte Carlo exit-time estimates")
    run.add_argument("--domain", required=True)
    run.add_argument("--paths", type=int, default=100_000)
    run.add_argument("--dt", type=float, default=1e-3)
    run.add_argument("--t-max", type=float, default=10.0)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--start", default="0.5")
    run.add_argument("--csv", help="dump the survival curve as columns")
    run.set_defaults(func=cmd_mc)

    rep = sub.add_parser("report", parents=[common], help="closed-form bound report")
    rep.add_argument("--domain")
    rep.add_argument("--n", type=int)
    rep.add_argument("--sweep", help="comma-separated rectangle half-lengths")
    rep.add_argument("--plot-prefix", help="prefix for two-column plot files")
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except (ValidationError, UnsupportedConfigurationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except StableGapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
