"""The four benchmark workloads: fixed operation lists and their checks.

Every operation goes through an entry point users call: `stablegap.cli.main`
in-process for the subcommands, and the public library functions where the
CLI exposes nothing (Poincare quotients, ground-state weights) or where the
subcommand's own estimators fail at some seeds (the Monte Carlo skeleton).
Each output
is checked against a reference that does not come from the operation itself;
a failed check marks the operation as failed and is reported, never skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

# interval (-1, 1), alpha = 1: Kulczycki, Kwasnicki, Malecki and Stos,
# "Spectral properties of the Cauchy process on half-line and interval",
# Proc. LMS 2010
KKMS_LAMBDA1 = 1.1577738836977

LADDER = (32, 64, 128, 256)
LADDER_CAP = 512
LADDER_TOL = 1e-3
RECT = "rect:-2,2,-1,1"

_clock = time.perf_counter


class Pass:
    """One closed-loop pass: operations run back to back in this process.

    `records` holds, per operation, its id, wall seconds and the list of
    failed checks; `outputs` holds, per operation, the exact CLI JSON text or
    a digest of the library result, for the tracer self-test.
    """

    def __init__(self, tracer=None, scratch="."):
        self.tracer = tracer
        self.scratch = scratch
        self.records = []
        self.outputs = {}
        self.facts = {}

    def op(self, op_id, fn):
        """Time fn() as operation op_id; an exception fails the operation."""
        ctx = self.tracer.operation(op_id) if self.tracer else contextlib.nullcontext()
        rec = {"id": op_id, "wall_s": 0.0, "failures": []}
        self.records.append(rec)
        value = None
        t0 = _clock()
        with ctx:
            try:
                value = fn()
            except Exception as exc:  # a library failure is a failed operation, not a crash
                rec["failures"].append(f"raised {exc!r}")
        rec["wall_s"] = _clock() - t0
        return value, rec

    def cli(self, op_id, argv):
        """Run `stablegap <argv>` in-process; returns its parsed JSON or None."""
        from stablegap import cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        res, rec = self.op(op_id, call)
        if res is None:
            return None, rec
        rc, text, err = res
        self.outputs[op_id] = text
        if rc != 0:
            rec["failures"].append(f"exit code {rc}: {err.strip()}")
            return None, rec
        return json.loads(text), rec

    @staticmethod
    def check(rec, ok, message):
        if not ok:
            rec["failures"].append(message)

    @property
    def wall_s(self):
        return sum(r["wall_s"] for r in self.records)


# ---------------- spectra ----------------


def spectra(p, seed):
    """Eigensolver assembly plus eigh in 1D and 2D, with bounds and Poincare."""
    from stablegap import bounds, poincare
    from stablegap.eigensolver import solve_spectrum
    from stablegap.geometry import Domain

    # alpha = 1 interval ladder: lambda1 >= KKMS and nonincreasing in n; the
    # cap rung runs only if the fixed rungs never reach LADDER_TOL
    rows = []
    prev = math.inf
    s_to_tol = None
    cumulative = 0.0
    for n in LADDER + (LADDER_CAP,):
        if n == LADDER_CAP and s_to_tol is not None:
            break
        out, rec = p.cli(f"eig.interval.n{n}",
                         ["eig", "--domain", "interval:-1,1", "--alpha", "1", "--n", str(n)])
        cumulative += rec["wall_s"]
        if out is None:
            continue
        lam = out["eigenvalues"][0]
        err = abs(lam - KKMS_LAMBDA1)
        rows.append({"n": n, "lambda1": lam, "err": err, "s": rec["wall_s"]})
        p.check(rec, lam >= KKMS_LAMBDA1, f"lambda1 {lam!r} below KKMS")
        p.check(rec, lam <= prev, f"lambda1 rose from {prev!r} to {lam!r}")
        prev = lam
        if s_to_tol is None and err <= LADDER_TOL:
            s_to_tol = cumulative
    p.check(rec, s_to_tol is not None, f"ladder never reached {LADDER_TOL} by n={n}")
    p.facts["ladder"] = rows
    p.facts["lambda1_s_to_1e-3"] = s_to_tol
    at256 = [r for r in rows if r["n"] == 256]
    p.facts["lambda1_abs_err"] = at256[0]["err"] if at256 else None

    interval = Domain.interval(-1.0, 1.0)
    quarter_pi2 = (np.pi / 2) ** 2
    for alpha in (0.5, 1.5, 2.0):
        res, rec = p.op(f"solve.interval.a{alpha}.n128",
                        lambda: solve_spectrum(interval, alpha, n_basis=128))
        if res is None:
            continue
        if alpha == 2.0:
            k = np.arange(1, res.eigenvalues.size + 1)
            exact = (k * np.pi / 2) ** 2
            rel = float(np.max(np.abs(res.eigenvalues - exact) / exact))
            p.check(rec, rel <= 1e-12, f"alpha=2 eigenvalues off (k pi/2)^2 by {rel:.3g}")
        else:
            lo, hi = bounds.stable_eigenvalue_bracket(quarter_pi2, alpha)
            p.check(rec, lo <= res.lambda1 <= hi,
                    f"lambda1 {res.lambda1!r} outside bracket [{lo!r}, {hi!r}]")

        def quotient(res=res):
            profile = poincare.ground_state_weight(res)
            return poincare.min_antisymmetric_quotient(profile, 1.0)

        q, rec = p.op(f"poincare.interval.a{alpha}", quotient)
        if q is not None:
            p.check(rec, q.quotient >= np.pi**2 / 4 - 1e-4,
                    f"Poincare quotient {q.quotient!r} below pi^2/4")

    # the union lies in (-2, 2) and contains (0.5, 2): domain monotonicity and
    # lambda1(kD) = lambda1(D) / k at alpha = 1 give KKMS/2 < lambda1 < KKMS/0.75
    out, rec = p.cli("eig.union.n64",
                     ["eig", "--domain", "intervals:-2,-0.5,0.5,2", "--n", "64"])
    if out is not None:
        lam = out["eigenvalues"][0]
        p.check(rec, out["star_index"] is not None, "interval union has no star_index")
        p.check(rec, KKMS_LAMBDA1 / 2 < lam < KKMS_LAMBDA1 / 0.75,
                f"union lambda1 {lam!r} outside (KKMS/2, KKMS/0.75)")

    prefix = os.path.join(p.scratch, "report")
    sweep = (1.0, 2.0, 4.0)
    out, rec = p.cli("report.rect.n16",
                     ["report", "--domain", RECT, "--n", "16",
                      "--sweep", ",".join(f"{v:g}" for v in sweep), "--plot-prefix", prefix])
    rect_l1 = {}
    if out is not None:
        ev = out["spectrum"]["eigenvalues"]
        rect_l1[16] = ev[0]
        lo, hi = out["report"]["lambda1_bracket"]
        p.check(rec, lo <= ev[0] <= hi, f"rect lambda1 {ev[0]!r} outside [{lo!r}, {hi!r}]")
        up = bounds.gap_upper(2, 1.0)
        p.check(rec, ev[1] - ev[0] <= up, f"rect gap {ev[1] - ev[0]!r} above gap_upper {up!r}")
        computed = np.atleast_2d(np.loadtxt(prefix + "_computed.dat"))
        p.check(rec, computed[:, 0].tolist() == list(sweep), "sweep rows missing")
        for L, gap in computed:
            low = bounds.rectangle_gap_lower(L)
            p.check(rec, gap > low, f"L={L:g}: gap* {gap!r} not above {low!r}")

    # nested sine bases: lambda1 is nonincreasing in n
    for n in (24, 32):
        out, rec = p.cli(f"eig.rect.n{n}", ["eig", "--domain", RECT, "--n", str(n)])
        if out is None:
            continue
        rect_l1[n] = out["eigenvalues"][0]
        prev = max((m for m in rect_l1 if m < n), default=None)
        if prev is None:
            p.check(rec, False, f"no coarser rectangle lambda1 to compare with n={n}")
        else:
            p.check(rec, rect_l1[n] <= rect_l1[prev],
                    f"rect lambda1 rose from n={prev} to n={n}")
    p.facts["rect_lambda1"] = {str(k): v for k, v in sorted(rect_l1.items())}


# ---------------- gap identity ----------------


def _gap_check(p, domain, n):
    op_id = f"gap_check.{domain.split(':')[0]}.n{n}"
    out, rec = p.cli(op_id, ["gap-check", "--domain", domain, "--alpha", "1", "--n", str(n)])
    if out is None:
        return
    rel = out["relative_error"]
    p.check(rec, out["pass"] is True, "gap-check reported pass = false")
    p.check(rec, rel < 0.02, f"relative_error {rel!r} not below 0.02")
    d01 = out["d01_integral"]
    p.check(rec, d01 is not None and d01 <= out["lambda_gap"] + 1e-3,
            f"d01_integral {d01!r} above lambda_gap + 1e-3")
    p.check(rec, abs(out["constant_field_Q"]) <= 1e-12,
            f"constant_field_Q {out['constant_field_Q']!r} not zero")
    p.facts["gap_identity_rel_err"] = rel


def interval_gap(p, seed):
    """1D harmonic-extension engine, dominated by wofz."""
    _gap_check(p, "interval:-1,1", 32)


def rect_gap(p, seed):
    """2D harmonic-extension engine, dominated by the contraction over time."""
    _gap_check(p, RECT, 8)


# ---------------- Monte Carlo ----------------

MC_PATHS = 50_000
MC_DT = 1e-3
MC_T_MAX = 6.0
MC_START = 0.5
# P_0.5(tau > t) on (-1, 1) at alpha = 1 for continuous monitoring, from the
# eigen-expansion sum_k exp(-lambda_k t) phi_k(0.5) int phi_k of the n = 512
# Galerkin solve. The values rise with n (0.56559, 0.56602, 0.56622 at t = 0.5
# for n = 128, 256, 512), so these lie below the exact ones by about 0.1
# Monte Carlo stderr, which only makes the lower check below more lenient.
SURVIVAL_REF = {0.5: 0.5662208, 1.0: 0.3103819, 2.0: 0.0967979, 4.0: 0.0095457}
# a stderr multiple that an exact inequality survives on every seed in practice
# (one-sided tail 3e-7 per comparison)
MC_Z = 5.0


def _tally_failures(curve):
    """Exact invariants of the partition tallies of one skeleton."""
    cfg = curve.config
    counts, plus, minus = curve.counts, curve.plus, curve.minus
    k = np.arange(1, curve.times.size + 1)
    size = -(-cfg.paths // cfg.partitions)
    checks = [
        (counts.shape == (cfg.partitions, curve.times.size), f"tally shape {counts.shape}"),
        (np.allclose(curve.times, k * cfg.record_stride * cfg.dt), "record times off the grid"),
        (counts.min() >= 0 and counts[:, 0].max() <= size, "alive count outside [0, partition size]"),
        (np.all(np.diff(counts, axis=1) <= 0), "a partition's alive count rose"),
        (np.all(plus + minus <= counts) and plus.min() >= 0 and minus.min() >= 0,
         "signed tallies exceed alive counts"),
    ]
    return [msg for ok, msg in checks if not ok]


def _survival_at(curve, t):
    j = int(np.argmin(np.abs(curve.times - t)))
    p = float(curve.survival[j])
    return p, math.sqrt(max(p * (1 - p), 0.0) / curve.config.paths)


def mc_interval(p, seed):
    """Monte Carlo step loop, subordinator sampler and containment.

    The simulation of `mc --domain interval:-1,1 --alpha 1 --paths 50000
    --dt 1e-3 --t-max 6 --start 0.5 --seed <seed>`, through the library call
    the subcommand makes, for dt and dt/2. The estimators the subcommand runs
    afterwards are left out: at this size they fail at some seeds (see
    README.md). Checks are exact inequalities, with MC_Z stderrs of slack:
    a path observed only at skeleton times survives at least as long as the
    continuous path, so survival >= SURVIVAL_REF; the dt skeleton is a subset
    of the dt/2 one, so survival at dt/2 <= survival at dt.
    """
    from stablegap import montecarlo
    from stablegap.geometry import Domain

    interval = Domain.interval(-1.0, 1.0)
    curves = {}
    for label, dt in (("dt", MC_DT), ("dt_half", MC_DT / 2)):
        cfg = montecarlo.McConfig(alpha=1.0, paths=MC_PATHS, dt=dt, t_max=MC_T_MAX, seed=seed)
        op_id = f"mc.skeleton.{label}"
        curve, rec = p.op(op_id, lambda cfg=cfg: montecarlo.survival_curve(interval, MC_START, cfg))
        if curve is None:
            continue
        curves[label] = (curve, rec)
        digest = hashlib.sha256()
        for a in (curve.times, curve.counts, curve.plus, curve.minus):
            digest.update(np.ascontiguousarray(a).tobytes())
        p.outputs[op_id] = digest.hexdigest()
        for msg in _tally_failures(curve):
            p.check(rec, False, f"{label}: {msg}")
        for t, ref in SURVIVAL_REF.items():
            s, se = _survival_at(curve, t)
            p.check(rec, s >= ref - MC_Z * se,
                    f"{label}: survival {s!r} at t={t:g} below continuous {ref!r} - {MC_Z:g} stderr")
    z = {}
    if len(curves) == 2:
        (c1, _), (c2, rec) = curves["dt"], curves["dt_half"]
        for t, ref in SURVIVAL_REF.items():
            (s1, e1), (s2, e2) = _survival_at(c1, t), _survival_at(c2, t)
            bound = MC_Z * math.hypot(e1, e2)
            p.check(rec, s2 - s1 <= bound,
                    f"survival at t={t:g} rose from {s1!r} (dt) to {s2!r} (dt/2)")
            z[f"t{t:g}"] = {"dt": (s1 - ref) / e1, "dt_half": (s2 - ref) / e2,
                            "dt_half_minus_dt": (s2 - s1) / math.hypot(e1, e2)}
    p.facts["mc_survival_z"] = z


WORKLOADS = {
    "spectra": spectra,
    "interval_gap": interval_gap,
    "rect_gap": rect_gap,
    "mc_interval": mc_interval,
}
