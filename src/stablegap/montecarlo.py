"""Monte Carlo exit-time statistics for symmetric alpha-stable processes.

Paths are simulated on a uniform time skeleton with exact increments,
positions and steps held as (paths, d) arrays in every dimension d. On the
line, for alpha < 2, each step is drawn straight from the symmetric
alpha-stable law (Chambers-Mallows-Stuck; at alpha = 1, dt tan(pi (U - 1/2))
from one uniform U). Otherwise the path is subordinated Brownian motion:
over each step the subordinator advances by a stable(alpha/2) increment dS
and the path by a centered Gaussian of variance 2 dS per coordinate. At
alpha = 2 the step is that Gaussian with dS = dt, in any dimension. A path
dies at the first skeleton time it is observed outside D; discrete
monitoring therefore overestimates survival, a bias that shrinks with dt
and is disclosed alongside estimates rather than corrected.

The partitions below are split into two contiguous blocks (one if there is
one partition), each driven by its own SFC64 stream (Doty-Humphrey's Small
Fast Chaotic generator: 256 bits of state, one of them a counter, so a
period of at least 2^64) seeded by a child of SeedSequence(seed). Every
stream runs on a thread of one pool, with as many threads as there are
streams or CPUs, whichever is fewer. A stream draws the steps of as many
whole records of all of its survivors as fit in DRAW_ENTRIES, at least one,
in pieces of at most DRAW_ENTRIES entries; so the tallies depend on the
seed, the stride, DRAW_ENTRIES and the block layout, never on the thread
count.

Long-time behavior of the survival curve gives lambda_1 and phi_1; the
signed occupation ratio

    r(t) = [P(X_t in D+, alive) - P(X_t in D-, alive)] / P(alive)

decays like exp(-(lambda_* - lambda_1) t) and gives the antisymmetric gap.
Paths are tallied per partition so that bootstrap resampling over
partitions yields honest (cluster-level) standard errors. Both decay rates
take the first settled tail window of one rule, _settled_window.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from ._cpu import cpu_count as _cpu_count
from .errors import EstimationError, ValidationError, require_alpha, require_count
from .kernels import sample_stable_increment, sample_subordinator_increment


@dataclass(frozen=True)
class McConfig:
    alpha: float = 1.0
    paths: int = 1_000_000
    dt: float = 1e-3
    t_max: float = 12.0
    seed: int = 0
    record_stride: int = 10
    partitions: int = 200

    def validate(self):
        require_alpha(self.alpha)
        if not (0 < self.dt < self.t_max < np.inf):
            raise ValidationError("need finite 0 < dt < t_max")
        # integers only: a record_stride of 2.5 matches no step and leaves
        # all-zero tallies, and a bool is an Integral but not a count
        for name, least in (("paths", 1), ("record_stride", 1), ("partitions", 1), ("seed", 0)):
            require_count(getattr(self, name), name, least)
        # a skeleton shorter than one stride has no record time to tally
        steps = _step_count(self.t_max, self.dt)
        if steps < self.record_stride:
            raise ValidationError(
                f"t_max / dt gives {steps} steps, fewer than one record stride "
                f"({self.record_stride})"
            )

    def to_json(self):
        return asdict(self)


@dataclass
class McEstimate:
    value: float
    stderr: float
    n_effective: int
    diagnostics: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "schema": 1,
            "value": self.value,
            "stderr": self.stderr,
            "n_effective": self.n_effective,
            "diagnostics": {k: v for k, v in self.diagnostics.items()
                            if isinstance(v, (int, float, str, bool))},
        }


@dataclass
class SurvivalCurve:
    """Skeleton survival tallies: counts[p, k] paths of partition p alive at
    times[k]; plus/minus split the alive counts by the sign of x1."""

    times: np.ndarray
    counts: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    config: McConfig
    start: np.ndarray

    @property
    def alive(self):
        return self.counts.sum(axis=0)

    @property
    def survival(self):
        return self.alive / self.config.paths

    @property
    def stderr(self):
        p = self.survival
        return np.sqrt(np.maximum(p * (1 - p), 0.0) / self.config.paths)

    def rows(self):
        return list(zip(self.times, self.survival, self.stderr))


# a step count t_max / dt within this relative distance of an integer is
# that integer: 0.7 / 1e-3 is 699.9999999999999 in floating point
_STEP_RTOL = 1e-9


def _step_count(t_max, dt):
    """Skeleton steps of size dt up to t_max: t_max / dt rounded to the
    nearest integer within a relative _STEP_RTOL of it, else rounded down."""
    ratio = t_max / dt
    nearest = round(ratio)
    return nearest if abs(ratio - nearest) <= _STEP_RTOL * ratio else int(ratio)


# the partitions are split into this many contiguous blocks, each simulated
# from its own key on a thread of one pool, one thread per CPU at most
_STREAMS = 2
# the bit generator each block's key drives: SFC64 fills doubles at about
# 1.5 ns each on one thread, against 3.6 ns for Philox
BIT_GENERATOR = np.random.SFC64
# the steps are drawn in chunks of at most this many entries (1 MB of
# float64). A stream draws as many whole records of its survivors as fit as
# one chunk, and a path that dies inside the chunk draws to its end; while
# not even one record fits, it draws that record in pieces of as many steps
# as fit. Fewer, larger numpy calls leave the two streams less per-call work
# to take turns on the interpreter lock for: the 50 000-path curves at
# dt = 1e-3 and 5e-4 took 0.36 s on two threads of a 2-core Xeon with
# 1 << 16 entries, 0.33 s with 1 << 17 and 0.34 s with 1 << 18, and 1 << 17
# raises the peak RSS of that benchmark by 2 to 3.5%
DRAW_ENTRIES = 1 << 17
# a chunk at least this many entries a step wide runs its running sums (the
# positions over its steps, the alive masks over its records) as a loop of
# row operations, a narrower one as one ufunc accumulation along the first
# axis, which gives the same bits. An accumulation costs about 2 ns an entry
# there, a row operation about 0.7 ns an entry and 0.5 us a call: the
# accumulation halves a 400-path run to t = 6, and the loop saves 50 us on
# each chunk of two records of 5 000 paths
_ROW_LOOP_WIDTH = 256


def stream_count(cfg):
    """Random streams that simulate_skeleton splits cfg's partitions over."""
    return min(_STREAMS, cfg.partitions)


def _draw_steps(cfg, dim, rng, shape):
    """Increments of shape (steps, paths, dim): on the line for alpha < 2 one
    stable draw each, viewed with its last axis, else a Gaussian of variance
    2 dS per coordinate, dS a subordinator draw, or dt at alpha = 2."""
    if dim == 1 and cfg.alpha < 2.0:
        return sample_stable_increment(cfg.dt, cfg.alpha, rng, shape)[..., None]
    ds = (np.full(shape, cfg.dt) if cfg.alpha == 2.0
          else sample_subordinator_increment(cfg.dt, cfg.alpha / 2.0, rng, shape))
    ds *= 2.0
    sig = np.sqrt(ds, out=ds)
    step = rng.standard_normal(shape + (dim,))
    step *= sig[..., None]
    return step


def _tally(key, x1, width, alive):
    """Alive, plus and minus counts of shape (width, k) at k record times,
    given each path's key 3 q + 1, q its partition's place among the width
    partitions of its stream, its first coordinate x1 at each record time,
    shape (k, paths), and the mask `alive` of the paths alive at each. One
    bincount keyed by record and 3 q + sign(x1) + 1: a survivor at x1 = 0 is
    alive but in neither half."""
    k = len(x1)
    key = key + (x1 > 0) - (x1 < 0) + 3 * width * np.arange(k)[:, None]
    n = np.bincount(key[alive], minlength=3 * width * k).reshape(k, width, 3).swapaxes(0, 1)
    return n.sum(axis=-1), n[..., 2], n[..., 0]


def _accumulate(ufunc, a):
    """The running ufunc of `a` along its first axis, written over it: a
    loop of row operations when a row holds at least _ROW_LOOP_WIDTH
    entries, else one ufunc.accumulate, which gives the same bits."""
    if a[0].size < _ROW_LOOP_WIDTH:
        return ufunc.accumulate(a, axis=0, out=a)
    for j in range(1, len(a)):
        # out positionally: the keyword form costs about 20 ns more a call
        ufunc(a[j], a[j - 1], a[j])
    return a


def _simulate_stream(domain, x, cfg, rng, paths, parts, tallies):
    """Simulate the paths in the range `paths`, which make up the partitions
    in the slice `parts`, from rng, and write those partitions' rows of the
    tallies (counts, plus, minus) at each record time."""
    dim, stride, records = domain.dim, cfg.record_stride, tallies[0].shape[1]
    part = np.arange(paths.start, paths.stop) * cfg.partitions // cfg.paths - parts.start
    key = (3 * part + 1).astype(np.int32)
    pos = np.tile(x, (len(paths), 1))
    r = 0
    while r < records and len(key):
        # k whole records, drawn as one chunk if they fit in DRAW_ENTRIES,
        # else the one record in pieces of as many rows as fit
        m = len(key)
        k = max(1, min(records - r, DRAW_ENTRIES // pos.size // stride))
        rows = max(1, DRAW_ENTRIES // pos.size)
        # a path is alive at a record time if it was inside D at every step
        # up to it, so one that leaves and comes back inside a chunk stays dead
        alive = np.ones((k, m), dtype=bool)
        for j0 in range(0, k * stride, rows):
            path = _draw_steps(cfg, dim, rng, (min(rows, k * stride - j0), m))
            path[0] += pos
            _accumulate(np.add, path)
            alive &= domain.contains(path).reshape(k, -1, m).all(axis=1)
            pos = path[-1]
        _accumulate(np.logical_and, alive)
        ends = path[(1 - k) * stride - 1 :: stride]
        columns = _tally(key, ends[..., 0], parts.stop - parts.start, alive)
        for tally, column in zip(tallies, columns):
            tally[parts, r : r + k] = column
        # compress, not a boolean index: on the (paths, d) rows of 25 000
        # paths it took 40 us at d = 1 and 2 on a 2-core Xeon, a boolean
        # index 130 and 340 us
        pos, key = pos.compress(alive[-1], axis=0), key[alive[-1]]
        r += k


def start_point(domain, x):
    """The start point x as an array of shape (d,), d the dimension of the
    domain; ValidationError unless it has d coordinates and lies in D."""
    x = np.asarray(x, dtype=float)
    try:
        x = x.reshape(domain.dim)
    except ValueError:
        raise ValidationError("start point dimension mismatch") from None
    if not domain.contains(x[None]).all():
        raise ValidationError("start point must lie in D")
    return x


def simulate_skeleton(domain, x, cfg):
    """Simulate the killed skeleton from x, checked by start_point, and tally
    per-partition alive counts.

    Deterministic for fixed (domain, x, cfg), on any number of threads. The
    partitions are split into stream_count(cfg) contiguous blocks; each
    block's paths are driven by its own BIT_GENERATOR (SFC64) stream, seeded
    by a child of SeedSequence(cfg.seed), and only its own tally rows are
    written. Every stream runs on a thread of one pool of
    min(stream_count(cfg), CPUs) threads. Each stream draws the steps of as
    many whole records of all of its survivors as fit in DRAW_ENTRIES as one
    chunk; while not even one record fits, it draws that record in pieces of
    as many steps as fit. Positions and steps are (paths, d) arrays in every
    dimension. A 1D step with alpha < 2 is one stable draw
    (sample_stable_increment), any other step a Gaussian of variance 2 dS per
    coordinate, dS a subordinator draw, or dt at alpha = 2. A path dies at
    the first skeleton time it is outside D; paths that die inside a chunk
    still draw the rest of it, and the dead are compacted away at its end, a
    record time. Steps after the last record time are not drawn.
    """
    cfg.validate()
    x = start_point(domain, x)
    n, P = cfg.paths, cfg.partitions
    n_steps = _step_count(cfg.t_max, cfg.dt)
    rec_idx = np.arange(cfg.record_stride, n_steps + 1, cfg.record_stride)
    times = rec_idx * cfg.dt
    # the last step lands on t_max up to the rounding of n_steps * dt
    times[np.isclose(times, cfg.t_max, rtol=_STEP_RTOL, atol=0.0)] = cfg.t_max
    counts = np.zeros((P, rec_idx.size), dtype=np.int64)
    plus = np.zeros_like(counts)
    minus = np.zeros_like(counts)
    streams = stream_count(cfg)
    edges = [s * P // streams for s in range(streams + 1)]
    # path i is in partition i P // n, so partition p starts at path ceil(p n / P)
    first = [-(-p * n // P) for p in edges]
    keys = np.random.SeedSequence(cfg.seed).spawn(streams)
    jobs = [partial(_simulate_stream, domain, x, cfg, np.random.Generator(BIT_GENERATOR(key)),
                    range(first[s], first[s + 1]), slice(edges[s], edges[s + 1]),
                    (counts, plus, minus))
            for s, key in enumerate(keys)]
    with ThreadPoolExecutor(min(len(jobs), _cpu_count())) as pool:
        for future in [pool.submit(job) for job in jobs]:
            future.result()
    return SurvivalCurve(times, counts, plus, minus, cfg, x)


def survival_curve(domain, x, cfg):
    """Estimated survival function, as the SurvivalCurve of simulate_skeleton
    (its rows() gives (t, fraction alive, stderr))."""
    return simulate_skeleton(domain, x, cfg)


def _telescoped_rate(alive_a, alive_b, dt):
    """Decay rate log(a/b)/dt with its standard error.

    Survivors at the later time are a thinning of the earlier ones, so
    Var(log(a/b)) is approximately 1/b - 1/a; the variance depends on the
    counts only, never on the realized rate, which keeps window averaging
    unbiased.
    """
    rate = np.log(alive_a / alive_b) / dt
    se = np.sqrt(1.0 / alive_b - 1.0 / alive_a) / dt
    return rate, se


# estimator settings; _N_BLOCKS serves the window search of both decay rates
_N_BLOCKS = 12
_WINDOW_TOL = 0.05
_PLATEAU_TOL = 3.0
_N_BOOTSTRAP = 200
_MIN_SIGNED = 30.0


def _settled_window(n, rate, tol, what):
    """First and last index (i, j) of the longest tail window over n record
    times in which every block rate lies within tol(m, block stderrs) of the
    window rate m. The n times are split into _N_BLOCKS blocks, and rate(i, j)
    gives the decay rate from index i to j with its stderr; a window spans at
    least three blocks. EstimationError with the text `what` when none does."""
    edges = np.linspace(0, n - 1, _N_BLOCKS + 1).astype(int)
    lo, hi = edges[:-1], edges[1:]
    br, bse = rate(lo, hi)
    for s in range(_N_BLOCKS - 2):
        m, _ = rate(lo[s], hi[-1])
        if np.all(np.abs(br[s:] - m) <= tol(m, bse[s:])):
            return lo[s], hi[-1]
    raise EstimationError(f"no stable fitting window: {what}")


def estimate_lambda1(curve, min_survivors=100):
    """Ground-state decay rate from the survival curve.

    The usable range (>= min_survivors alive) is split into _N_BLOCKS equal
    time blocks; the estimate telescopes log(survival) over the longest tail
    window whose per-block rates are all consistent with the window rate
    within _WINDOW_TOL or two block standard errors.
    """
    alive = curve.alive
    keep = alive >= min_survivors
    if keep.sum() < _N_BLOCKS + 1:
        raise EstimationError(
            f"only {int(keep.sum())} record times with >= {min_survivors} survivors"
        )
    alive = alive[keep].astype(float)
    times = curve.times[keep]

    def rate(i, j):
        return _telescoped_rate(alive[i], alive[j], times[j] - times[i])

    i, j = _settled_window(alive.size, rate,
                           lambda m, bse: np.maximum(_WINDOW_TOL * abs(m), 2.0 * bse),
                           "survival decay rate never settles within tolerance")
    value, stderr = rate(i, j)
    return McEstimate(float(value), float(stderr), int(alive[j]),
                      {"window_start": float(times[i]), "window_end": float(times[j])})


def estimate_phi1(curve, t, lambda1):
    """phi_1 at the curve's start point, up to normalization:
    exp(lambda1 * t) * survival(t), lambda1 the McEstimate of
    estimate_lambda1 and t taken at the first record time from t on.

    Requires the compensated curve s -> exp(lambda1 s) survival(s) to have
    stabilized before t: at each record time s from t / 2 to t it must lie
    within _PLATEAU_TOL standard errors of the value at t. Those combine the
    survival stderrs at s and at t with the tilt that an error of lambda1
    gives the compensated curve, |t - s| stderr(lambda1) comp(s). The
    returned stderr is the survival's alone: an error of lambda1 scales the
    estimate at every start point alike, which the normalization absorbs.
    """
    if not 0 < t <= curve.times[-1]:  # NaN fails too
        raise ValidationError("t must lie in (0, simulated horizon]")
    j = int(np.searchsorted(curve.times, t))
    comp = np.exp(lambda1.value * curve.times) * curve.survival
    comp_err = np.exp(lambda1.value * curve.times) * curve.stderr
    lo = int(np.searchsorted(curve.times, 0.5 * t))
    ref = comp[j]
    dev = np.abs(comp[lo : j + 1] - ref)
    tilt = (curve.times[j] - curve.times[lo : j + 1]) * lambda1.stderr * comp[lo : j + 1]
    tol = _PLATEAU_TOL * np.sqrt(comp_err[lo : j + 1] ** 2 + comp_err[j] ** 2 + tilt**2)
    if np.any(dev > np.maximum(tol, 1e-12)):
        raise EstimationError("compensated survival has not reached its plateau by t")
    return McEstimate(float(ref), float(comp_err[j]), int(curve.alive[j]),
                      {"t": float(curve.times[j])})


def estimate_gap_star(domain, curve):
    """Antisymmetric gap lambda_* - lambda_1 from the signed survival ratio.

    The ratio r(t) = (right-half count - left-half count) / alive decays at
    the gap rate once the higher antisymmetric modes have died out; at early
    times they bias the local rate downward.  The usable range (signed count
    above _MIN_SIGNED Poisson scales) is split into _N_BLOCKS time blocks and
    the estimate telescopes log r over the longest tail window in which every
    block rate is statistically consistent (2.5 block stderrs, with no
    relative slack) with the window rate, so early biased blocks are excluded
    exactly when the path count makes the bias visible.  stderr is the spread
    of the same window statistic over _N_BOOTSTRAP partition bootstrap resamples,
    seeded from the curve's config.
    """
    g = domain.summarize()
    if not g.symmetric_x1:
        raise ValidationError("gap estimation needs an x1-symmetric domain")
    if curve.start[0] <= 0:
        raise ValidationError("start the chain strictly inside the positive half")

    def ratio_curve(counts, plus, minus):
        alive = counts.sum(axis=0)
        signed = plus.sum(axis=0) - minus.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(alive > 0, signed / np.maximum(alive, 1), np.nan), signed, alive

    r, signed, alive = ratio_curve(curve.counts, curve.plus, curve.minus)
    usable = (signed > _MIN_SIGNED * np.sqrt(np.maximum(alive, 1))) & (alive > 50)
    if usable.sum() < _N_BLOCKS + 1:
        raise EstimationError("signed survival ratio is below the noise floor")
    sel = np.nonzero(usable)[0]
    ts = curve.times[sel]
    lr = np.log(r[sel])
    # var(log r) ~ (1 - r^2) / (alive r^2) for +-1 path signs
    vlr = (1.0 - r[sel] ** 2) / (alive[sel] * r[sel] ** 2)

    def rate(i, j):
        return (lr[i] - lr[j]) / (ts[j] - ts[i]), np.sqrt(vlr[i] + vlr[j]) / (ts[j] - ts[i])

    w0, i1 = _settled_window(sel.size, rate, lambda m, bse: 2.5 * np.maximum(bse, 1e-12),
                             "signed decay rate never settles")
    # telescope over the later two-thirds of the accepted window: residual
    # mode contamination decays at roughly twice the gap rate, so the early
    # third carries most of the remaining downward bias at a small variance
    # saving that is not worth keeping
    cut = ts[w0] + (ts[i1] - ts[w0]) / 3.0
    i0 = int(np.searchsorted(ts, cut))
    i0 = min(i0, i1 - 1)
    slope = float((lr[i0] - lr[i1]) / (ts[i1] - ts[i0]))
    rng = np.random.Generator(np.random.Philox(curve.config.seed + 1))
    P = curve.config.partitions
    boots = []
    for _ in range(_N_BOOTSTRAP):
        pick = rng.integers(0, P, size=P)
        rb, _, _ = ratio_curve(curve.counts[pick], curve.plus[pick], curve.minus[pick])
        ra, rz = rb[sel[i0]], rb[sel[i1]]
        if np.isfinite(ra) and np.isfinite(rz) and ra > 0 and rz > 0:
            boots.append(float(np.log(ra / rz) / (ts[i1] - ts[i0])))
    if len(boots) < _N_BOOTSTRAP // 2:
        raise EstimationError("bootstrap resamples mostly degenerate")
    stderr = float(np.std(boots, ddof=1))
    return McEstimate(slope, stderr, int(alive[sel[i1]]),
                      {"window_start": float(ts[i0]), "window_end": float(ts[i1]),
                       "bootstrap_samples": len(boots)})


def time_to_equilibrium_bounds(gap, epsilon, c1):
    """Bracket for the time at which the conditioned distribution is within
    epsilon of its limit: (log(1/eps)/gap, c1 + log(1/eps)/gap)."""
    if not gap > 0:
        raise ValidationError("gap must be positive")
    if not (0 < epsilon < 1):
        raise ValidationError("epsilon must lie in (0, 1)")
    if not 0 <= c1 < np.inf:
        raise ValidationError("c1 must be finite and >= 0")
    lower = np.log(1.0 / epsilon) / gap
    return (float(lower), float(c1 + lower))
