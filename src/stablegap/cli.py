"""Command-line interface: spectra, gap checks, Monte Carlo runs, reports.

Exit codes: 0 success, 2 invalid input or unsupported configuration (an
output path in a missing directory, or a failed write, among them), 3
numeric budget or estimation failure, or out of memory (a basis too large
to allocate). All file outputs are written atomically (temp file + rename),
UTF-8, with sorted JSON keys, a top-level "schema": 1, and a full echo of
the resolved configuration; reruns with the same arguments (and seed, for
stochastic commands) are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import bounds as bounds_mod
from . import montecarlo as mc
from . import steklov
from ._quad import tensor_points
from .errors import (
    EstimationError,
    NumericalBudgetError,
    StableGapError,
    UnsupportedConfigurationError,
    ValidationError,
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


def _emit_json(obj, path):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        _write_atomic(path, text)
    else:
        sys.stdout.write(text)


def _emit_columns(rows, path, header=None):
    lines = []
    if header:
        lines.append("# " + " ".join(header))
    for row in rows:
        lines.append(" ".join(f"{v:.12g}" for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def cmd_eig(args):
    domain = parse_domain(args.domain)
    if args.csv:
        # the modes reported are the first --n-report of the basis, which is
        # built without assembly
        size = spectral_basis(domain, args.n).size
        top = min(args.n_report, size)
        if not 1 <= args.csv_mode <= top:
            raise ValidationError(f"--csv-mode {args.csv_mode} outside 1..{top}"
                                  f" (--n-report {args.n_report}, basis size {size})")
    t0 = time.perf_counter()  # the solve's wall time goes to stderr, never into the JSON
    result = solve_spectrum(domain, args.alpha, n_basis=args.n, n_report=args.n_report)
    solve_s = time.perf_counter() - t0
    config = {
        "command": "eig",
        "domain": domain.to_json(),
        "alpha": args.alpha,
        "n": args.n,
        "n_report": args.n_report,
    }
    out = {
        "schema": 1,
        "config": config,
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "symmetry": list(result.symmetry),
        "star_index": result.star_index,
        "lambda_gap": result.lambda2 - result.lambda1,
    }
    phi = result.eigenfunction(args.csv_mode) if args.csv else None
    sys.stderr.write(f"eig: solve {solve_s:.3f} s\n")
    _emit_json(out, args.out)
    if args.csv:
        n = 512 if domain.dim == 1 else 64
        pts = tensor_points([np.linspace(lo, hi, n) for lo, hi in domain.bounding_box()])
        _emit_columns(np.column_stack([pts, phi(pts)]), args.csv)
    return 0


def cmd_gap_check(args):
    if args.alpha != 1.0:
        raise UnsupportedConfigurationError("gap-check extensions require alpha = 1")
    domain = parse_domain(args.domain)
    # each flag given replaces its own field of the per-dimension default box
    given = {k: v for k in ("eps", "t_max", "x_max") if (v := getattr(args, k)) is not None}
    trunc = dataclasses.replace(steklov.default_truncation(domain.dim), **given)
    steklov.check_truncation(trunc, domain)  # before the solve, which a bad box would waste
    if args.mode is not None and args.mode < 2:
        raise ValidationError(f"--mode {args.mode} < 2: mode 1 has no gap to lambda_1")
    t0 = time.perf_counter()  # stage wall times go to stderr, never into the JSON
    result = solve_spectrum(domain, args.alpha, n_basis=args.n)
    t1 = time.perf_counter()
    n = args.mode if args.mode is not None else (result.star_index or 2)
    chk = steklov.gap_identity_check(result, n, trunc=trunc)
    t2 = time.perf_counter()
    if chk["tail_bound"] > 0.01 * chk["lhs"]:
        raise NumericalBudgetError(
            f"truncation tail bound {chk['tail_bound']:.3g} exceeds 1% of the gap"
        )
    d01 = steklov.d01_lower_bound_check(result, trunc=trunc) if result.star_index else None
    t3 = time.perf_counter()
    # the engine's cost goes to stderr with the stage times, never into the JSON
    tallies = [c["faddeeva_entries"] for c in (chk, d01) if c]
    evaluated, skipped = (sum(t[k] for t in tallies) for k in ("evaluated", "skipped"))
    sys.stderr.write(
        f"gap-check: solve {t1 - t0:.3f} s, gap identity {t2 - t1:.3f} s, d01 {t3 - t2:.3f} s; "
        f"extension engine workers {steklov.engine_workers(domain.dim)}; "
        f"Faddeeva entries {evaluated} evaluated, {skipped} skipped\n"
    )
    out = {
        "schema": 1,
        "config": {
            "command": "gap_check",
            "domain": domain.to_json(),
            "alpha": args.alpha,
            "n": args.n,
            "mode": n,
            "truncation": [trunc.eps, trunc.t_max, trunc.x_max],
        },
        "lambda_gap": chk["lhs"],
        "Q_value": chk["rhs"],
        "relative_error": chk["relative_error"],
        "tail_bound": chk["tail_bound"],
        "constant_field_Q": chk["constant_field_Q"],
        "d01_integral": d01["simplified_integral"] if d01 else None,
        "pass": bool(chk["relative_error"] < _GAP_REL_TOL and (d01 is None or d01["pass"])),
    }
    _emit_json(out, args.out)
    return 0


def cmd_mc(args):
    domain = parse_domain(args.domain)
    start = _floats(args.start)
    if len(start) != domain.dim:
        raise ValidationError("start point dimension mismatch")
    x = start[0] if domain.dim == 1 else np.array(start)
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
    if not domain.contains(np.array([x]))[0]:
        raise ValidationError("start point must lie in D")
    n = 256 if domain.dim == 1 else 24
    t0 = time.perf_counter()  # stage wall times go to stderr, never into the JSON
    lam_hat = float(solve_spectrum(domain, args.alpha, n_basis=n).lambda1)
    stages = [f"galerkin solve {time.perf_counter() - t0:.3f} s"]
    estimates = {}
    curves = {}
    for label, cfg in configs.items():
        t0 = time.perf_counter()
        curve = mc.survival_curve(domain, x, cfg)
        stages.append(f"survival {label} {time.perf_counter() - t0:.3f} s")
        est = mc.estimate_lambda1(curve)
        entry = {"config": cfg.to_json(), "lambda1": est.to_json()}
        g = domain.summarize()
        if g.symmetric_x1 and start[0] > 0:
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
    out = {
        "schema": 1,
        "config": {
            "command": "mc",
            "domain": domain.to_json(),
            "alpha": args.alpha,
            "paths": args.paths,
            "dt": args.dt,
            "t_max": args.t_max,
            "seed": args.seed,
            "start": start,
            "record_stride": mc.McConfig.record_stride,
            "streams": mc.stream_count(configs["dt"]),
            "bit_generator": mc.BIT_GENERATOR.__name__,
            "draw_entries": mc.DRAW_ENTRIES,
        },
        "estimates": estimates,
        "galerkin": galerkin,
        "dt_refinement": {
            "lambda1_delta": fine["value"] - coarse["value"],
            "stderr": float(np.hypot(fine["stderr"], coarse["stderr"])),
        },
    }
    sys.stderr.write("mc: " + ", ".join(stages) + "\n")
    _emit_json(out, args.out)
    if args.csv:
        _emit_columns(curves["dt"].rows(), args.csv, header=("t", "survival", "stderr"))
    return 0


def cmd_report(args):
    if not 0 < args.alpha <= 2:
        raise ValidationError("alpha must lie in (0, 2]")
    if args.n is not None and args.n < 1:
        raise ValidationError("--n must be >= 1")
    domain = parse_domain(args.domain) if args.domain else None
    if (args.sweep is None) != (args.plot_prefix is None):
        raise ValidationError("--sweep and --plot-prefix must be given together")
    sweep = _floats(args.sweep) if args.sweep is not None else []
    if not all(1 <= L < np.inf for L in sweep):  # rectangle_gap_lower needs L >= 1; NaN fails too
        raise ValidationError(f"--sweep half-lengths must be finite and >= 1, got {args.sweep!r}")
    config = {
        "command": "report",
        "domain": domain.to_json() if domain else None,
        "alpha": args.alpha,
        "n": args.n,
        "sweep": args.sweep,
    }
    out = {"schema": 1, "config": config}
    stages = []  # wall times of the stages that ran go to stderr, never into the JSON
    result = None  # the main domain's solve, reused by a sweep rectangle equal to it
    if domain is not None:
        lam1 = None
        spectrum = None
        if args.n is not None:
            t0 = time.perf_counter()
            result = solve_spectrum(domain, args.alpha, n_basis=args.n)
            stages.append(f"solve {time.perf_counter() - t0:.3f} s")
            lam1 = float(result.lambda1)
            spectrum = {
                "eigenvalues": [float(v) for v in result.eigenvalues],
                "star_index": result.star_index,
                "gap": result.lambda2 - result.lambda1,
                "gap_star": float(result.lambda_star - result.lambda1)
                if result.star_index else None,
            }
        report = bounds_mod.build_report(domain, alpha=args.alpha, lambda1=lam1)
        out["report"] = report.to_json()
        out["spectrum"] = spectrum
        sys.stderr.write(bounds_mod.render_table(report) + "\n")
    else:
        out["constants"] = {
            f"d={d}": dict(zip(("C", "C_prime"), bounds_mod.main_gap_constants(d)))
            for d in (1, 2, 3)
        }
    if sweep:
        t0 = time.perf_counter()
        lower_rows, upper_rows, computed_rows = [], [], []
        for L in sweep:
            dom = Domain.rectangle(-L, L, -1, 1)
            lower_rows.append((L, bounds_mod.rectangle_gap_lower(L)))
            upper_rows.append((L, bounds_mod.gap_upper(2, 1.0, args.alpha)))
            if args.n is not None:
                same = result is not None and dom == domain
                r = result if same else solve_spectrum(dom, args.alpha, n_basis=args.n)
                computed_rows.append((L, float(r.lambda_star - r.lambda1)))
        stages.append(f"sweep {time.perf_counter() - t0:.3f} s")
        _emit_columns(lower_rows, args.plot_prefix + "_lower.dat", header=("L", "gap_lower"))
        _emit_columns(upper_rows, args.plot_prefix + "_upper.dat", header=("L", "gap_upper"))
        if computed_rows:
            _emit_columns(computed_rows, args.plot_prefix + "_computed.dat",
                          header=("L", "gap_star"))
    if stages:
        sys.stderr.write("report: " + ", ".join(stages) + "\n")
    _emit_json(out, args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="stablegap",
        description="Spectra and spectral-gap bounds of killed stable processes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    eig = sub.add_parser("eig", help="solve the Dirichlet spectrum")
    eig.add_argument("--domain", required=True)
    eig.add_argument("--alpha", type=float, default=1.0)
    eig.add_argument("--n", type=int, default=256)
    eig.add_argument("--n-report", type=int, default=8)
    eig.add_argument("--out")
    eig.add_argument("--csv", help="dump an eigenfunction as columns")
    eig.add_argument("--csv-mode", type=int, default=1)
    eig.set_defaults(func=cmd_eig)

    gap = sub.add_parser("gap-check", help="verify the variational gap identity")
    gap.add_argument("--domain", required=True)
    gap.add_argument("--alpha", type=float, default=1.0)
    gap.add_argument("--n", type=int, default=256)
    gap.add_argument("--mode", type=int)
    gap.add_argument("--eps", type=float)
    gap.add_argument("--t-max", type=float)
    gap.add_argument("--x-max", type=float)
    gap.add_argument("--out")
    gap.set_defaults(func=cmd_gap_check)

    run = sub.add_parser("mc", help="Monte Carlo exit-time estimates")
    run.add_argument("--domain", required=True)
    run.add_argument("--alpha", type=float, default=1.0)
    run.add_argument("--paths", type=int, default=100_000)
    run.add_argument("--dt", type=float, default=1e-3)
    run.add_argument("--t-max", type=float, default=10.0)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--start", default="0.5")
    run.add_argument("--out")
    run.add_argument("--csv", help="dump the survival curve as columns")
    run.set_defaults(func=cmd_mc)

    rep = sub.add_parser("report", help="closed-form bound report")
    rep.add_argument("--domain")
    rep.add_argument("--alpha", type=float, default=1.0)
    rep.add_argument("--n", type=int)
    rep.add_argument("--sweep", help="comma-separated rectangle half-lengths")
    rep.add_argument("--plot-prefix", help="prefix for two-column plot files")
    rep.add_argument("--out")
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
