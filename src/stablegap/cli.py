"""Command-line interface: spectra, gap checks, Monte Carlo runs, reports.

Exit codes: 0 success, 2 invalid input or unsupported configuration,
3 numeric budget or estimation failure. All file outputs are written
atomically (temp file + rename), UTF-8, with sorted JSON keys, a top-level
"schema": 1, and a full echo of the resolved configuration; reruns with the
same arguments (and seed, for stochastic commands) are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import bounds as bounds_mod
from . import montecarlo as mc
from . import steklov
from .errors import (
    EstimationError,
    NumericalBudgetError,
    StableGapError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .eigensolver import solve_spectrum
from .geometry import Domain


def _threads():
    """Honor the FRACSPEC_THREADS cap for BLAS thread pools when set."""
    cap = os.environ.get("FRACSPEC_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        raise ValidationError("FRACSPEC_THREADS must be an integer")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(n))
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(n)
    except ImportError:
        pass


def parse_domain(text):
    """Domain from JSON or shorthand: interval:a,b | intervals:a,b,c,d |
    rect:x1lo,x1hi,x2lo,x2hi | disk:cx,cy,r."""
    text = text.strip()
    if text.startswith("{"):
        return Domain.from_json(json.loads(text))
    try:
        kind, _, rest = text.partition(":")
        vals = [float(v) for v in rest.split(",")] if rest else []
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
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"bad domain spec {text!r}: {exc}")
    raise ValidationError(f"bad domain spec {text!r}")


def _write_atomic(path, data):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def _check_alpha(alpha):
    if not (0 < alpha <= 2):
        raise ValidationError("alpha must lie in (0, 2]")


def cmd_eig(args):
    _check_alpha(args.alpha)
    domain = parse_domain(args.domain)
    result = solve_spectrum(domain, args.alpha, n_basis=args.n, n_report=args.n_report)
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
        "lambda_gap": float(result.eigenvalues[1] - result.eigenvalues[0]),
    }
    _emit_json(out, args.out)
    if args.csv:
        phi = result.eigenfunction(args.csv_mode)
        if domain.dim == 1:
            (lo, hi), = domain.bounding_box()
            xs = np.linspace(lo, hi, 512)
            rows = np.column_stack([xs, phi(xs)])
        else:
            (a1, b1), (a2, b2) = domain.bounding_box()
            g1, g2 = np.meshgrid(
                np.linspace(a1, b1, 64), np.linspace(a2, b2, 64), indexing="ij"
            )
            pts = np.column_stack([g1.ravel(), g2.ravel()])
            rows = np.column_stack([pts, phi(pts)])
        _emit_columns(rows, args.csv)
    return 0


def cmd_gap_check(args):
    _check_alpha(args.alpha)
    if args.alpha != 1.0:
        raise UnsupportedConfigurationError("gap-check extensions require alpha = 1")
    domain = parse_domain(args.domain)
    result = solve_spectrum(domain, args.alpha, n_basis=args.n)
    trunc = steklov.Truncation(args.eps, args.t_max, args.x_max) \
        if args.t_max else steklov.default_truncation(domain.dim)
    n = args.mode if args.mode else (result.star_index or 2)
    chk = steklov.gap_identity_check(result, n, trunc=trunc)
    if chk["tail_bound"] > 0.01 * chk["lhs"]:
        raise NumericalBudgetError(
            f"truncation tail bound {chk['tail_bound']:.3g} exceeds 1% of the gap"
        )
    d01 = steklov.d01_lower_bound_check(result, trunc=trunc) if result.star_index else None
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
        "pass": bool(chk["relative_error"] < args.rel_tol and (d01 is None or d01["pass"])),
    }
    _emit_json(out, args.out)
    return 0


def cmd_mc(args):
    _check_alpha(args.alpha)
    domain = parse_domain(args.domain)
    start = [float(v) for v in args.start.split(",")]
    if len(start) != domain.dim:
        raise ValidationError("start point dimension mismatch")
    x = start[0] if domain.dim == 1 else np.array(start)
    estimates = {}
    curves = {}
    for label, dt in (("dt", args.dt), ("dt_half", args.dt / 2)):
        cfg = mc.McConfig(
            alpha=args.alpha, paths=args.paths, dt=dt, t_max=args.t_max,
            seed=args.seed, record_stride=args.record_stride,
        )
        curve = mc.survival_curve(domain, x, cfg)
        est = mc.estimate_lambda1(curve)
        entry = {"config": cfg.to_json(), "lambda1": est.to_json()}
        g = domain.summarize()
        if g.symmetric_x1 and start[0] > 0:
            try:
                entry["gap_star"] = mc.estimate_gap_star(domain, x, cfg, curve=curve).to_json()
            except EstimationError as exc:
                entry["gap_star"] = {"error": str(exc)}
        estimates[label] = entry
        curves[label] = curve
    galerkin = None
    if not args.no_oracle:
        n = 256 if domain.dim == 1 else 24
        result = solve_spectrum(domain, args.alpha, n_basis=n)
        lam_hat = float(result.lambda1)
        est = estimates["dt"]["lambda1"]
        galerkin = {
            "lambda1": lam_hat,
            "n_basis": n,
            "z_score": (est["value"] - lam_hat) / est["stderr"] if est["stderr"] > 0 else None,
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
            "record_stride": args.record_stride,
        },
        "estimates": estimates,
        "galerkin": galerkin,
    }
    _emit_json(out, args.out)
    if args.csv:
        _emit_columns(curves["dt"].rows(), args.csv, header=("t", "survival", "stderr"))
    return 0


def cmd_report(args):
    domain = parse_domain(args.domain) if args.domain else None
    config = {
        "command": "report",
        "domain": domain.to_json() if domain else None,
        "alpha": args.alpha,
        "n": args.n,
        "sweep": args.sweep,
    }
    out = {"schema": 1, "config": config}
    if domain is not None:
        _check_alpha(args.alpha)
        lam1 = None
        spectrum = None
        if args.n:
            result = solve_spectrum(domain, args.alpha, n_basis=args.n)
            lam1 = float(result.lambda1)
            spectrum = {
                "eigenvalues": [float(v) for v in result.eigenvalues],
                "star_index": result.star_index,
                "gap": float(result.eigenvalues[1] - result.eigenvalues[0]),
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
    _emit_json(out, args.out)
    if args.sweep and args.plot_prefix:
        ls = [float(v) for v in args.sweep.split(",")]
        lower_rows, upper_rows, computed_rows = [], [], []
        for L in ls:
            dom = Domain.rectangle(-L, L, -1, 1)
            lower_rows.append((L, bounds_mod.rectangle_gap_lower(L)))
            upper_rows.append((L, bounds_mod.gap_upper(2, 1.0, args.alpha)))
            if args.n:
                r = solve_spectrum(dom, args.alpha, n_basis=args.n)
                computed_rows.append((L, float(r.lambda_star - r.lambda1)))
        _emit_columns(lower_rows, args.plot_prefix + "_lower.dat", header=("L", "gap_lower"))
        _emit_columns(upper_rows, args.plot_prefix + "_upper.dat", header=("L", "gap_upper"))
        if computed_rows:
            _emit_columns(computed_rows, args.plot_prefix + "_computed.dat",
                          header=("L", "gap_star"))
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
    gap.add_argument("--eps", type=float, default=1e-3)
    gap.add_argument("--t-max", type=float)
    gap.add_argument("--x-max", type=float)
    gap.add_argument("--rel-tol", type=float, default=0.05)
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
    run.add_argument("--record-stride", type=int, default=10)
    run.add_argument("--no-oracle", action="store_true")
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
    _threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, UnsupportedConfigurationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NumericalBudgetError, EstimationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except StableGapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
