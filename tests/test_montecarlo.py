"""Skeleton Monte Carlo: survival curves, rate estimators, determinism."""

import ast
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from stablegap import (
    Domain,
    EstimationError,
    McConfig,
    McEstimate,
    ValidationError,
    estimate_gap_star,
    estimate_lambda1,
    estimate_phi1,
    simulate_skeleton,
    skeleton_survival,
    survival_curve,
    time_to_equilibrium_bounds,
)
from stablegap import montecarlo

GALERKIN_LAMBDA1 = 1.15810  # interval (-1,1), alpha = 1, N = 512
GALERKIN_GAP = 1.59786


@pytest.fixture(scope="module")
def interval():
    return Domain.interval(-1.0, 1.0)


@pytest.fixture(scope="module")
def base_curve(interval):
    cfg = McConfig(alpha=1.0, paths=200_000, dt=1e-3, t_max=10.0, seed=3)
    return survival_curve(interval, 0.5, cfg)


def test_config_validation():
    with pytest.raises(ValidationError):
        McConfig(paths=0).validate()
    with pytest.raises(ValidationError):
        McConfig(alpha=2.5).validate()
    with pytest.raises(ValidationError):
        McConfig(dt=-1e-3).validate()
    for seed in (-1, 1.5, True):
        with pytest.raises(ValidationError):
            McConfig(seed=seed).validate()
    McConfig(seed=np.int64(7)).validate()  # numpy integers are seeds too
    # a fractional stride matched no recorded step and left all-zero tallies;
    # fractional paths and partitions failed inside numpy
    for field, bad in [("paths", 1000.5), ("partitions", 2.5), ("record_stride", 2.5),
                       ("paths", True), ("partitions", np.float64(4.0)), ("record_stride", 0),
                       ("partitions", "200")]:
        with pytest.raises(ValidationError, match=field):
            McConfig(**{field: bad}).validate()
    McConfig(paths=np.int32(1000), partitions=np.int64(10), record_stride=np.int8(5)).validate()


@pytest.mark.parametrize("t_max, dt, stride",
                         [(0.005, 1e-3, 10), (0.3, 0.1, 4), (0.0999, 0.01, 10)],
                         ids=["half-a-stride", "three-of-four-steps", "just-below-a-stride"])
def test_config_rejects_a_skeleton_shorter_than_one_stride(interval, t_max, dt, stride):
    # with fewer steps than one record stride there is no record time, and
    # simulate_skeleton returned a curve with no times
    cfg = McConfig(paths=10, dt=dt, t_max=t_max, record_stride=stride)
    with pytest.raises(ValidationError, match="record stride"):
        cfg.validate()
    with pytest.raises(ValidationError, match="record stride"):
        simulate_skeleton(interval, 0.5, cfg)
    # one whole stride is enough: 0.01 / 1e-3 is 9.999999999999998
    curve = simulate_skeleton(interval, 0.5, McConfig(paths=10, dt=1e-3, t_max=0.01))
    assert curve.times.tolist() == [0.01]


def test_survival_curve_shape_and_monotonicity(base_curve):
    s = base_curve.survival
    assert s[0] <= 1.0
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert np.all(np.diff(base_curve.alive) <= 0)
    # signed decomposition is consistent with the total
    assert np.all(base_curve.plus.sum(axis=0) + base_curve.minus.sum(axis=0)
                  == base_curve.counts.sum(axis=0))


def test_determinism(interval):
    cfg = McConfig(alpha=1.0, paths=20_000, dt=2e-3, t_max=4.0, seed=11)
    a = simulate_skeleton(interval, 0.5, cfg)
    b = simulate_skeleton(interval, 0.5, cfg)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.plus, b.plus)
    assert np.array_equal(a.times, b.times)


def _tally_digest(curve):
    h = hashlib.sha256()
    for a in (curve.times, curve.counts, curve.plus, curve.minus):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of (times, counts, plus, minus); recorded with numpy 2.4.6, whose
# SFC64 stream and random/exponential/normal transforms they depend on.
# The stream is that of two SFC64 keys spawned from the seed, one per block
# of partitions, each drawing as many whole records of its survivors as fit
# in DRAW_ENTRIES = 1 << 17 entries as one chunk, and while not even one
# record fits, that record in pieces of as many steps as fit. The interval
# pins are those of the direct stable steps (one uniform per step at
# alpha = 1, a uniform and an exponential at 1.5), and at alpha = 2 that of
# the Gaussian step with dS = dt; the rectangle pins are those of the
# subordinated Gaussian step, with the closed-form beta = 1/2 subordinator
# at alpha = 1 and the general Kanter product at 1.5
STREAM_PINS = {
    "interval-alpha1": "d22a1974236a285ac0df318ef8ce12b98d40fa4c85ce5804d7d488794bef153c",
    "rect-alpha1": "e095c575ec1732037ec3cf9bdee82c061eaafe9d3c3a3d5cf9ce5b9d57375123",
    "interval-alpha1.5": "4e8f40bfb7e9cd4934e88579116e6f13e68894fdaa41be0b1ed2ff10a89527c7",
    "interval-alpha2": "6285677e407a92b5611391921c46cbfab8249de2d1020de0d7df728d1d18242d",
    "rect-alpha1.5": "98df7ced62a5c26fc15f1d6bf80ef31b828c84fd8da67004845d768a90525123",
}


def test_stream_pins(interval, rect_domain):
    # the tallies are integer functions of the random stream: a sampler change
    # that keeps the stream keeps them bit for bit
    runs = {
        "interval-alpha1": (interval, 0.5,
                            McConfig(alpha=1.0, paths=20_000, dt=2e-3, t_max=4.0, seed=11)),
        "rect-alpha1": (rect_domain, np.array([0.5, 0.0]),
                        McConfig(alpha=1.0, paths=30_000, dt=2e-3, t_max=3.0, seed=47)),
        "interval-alpha1.5": (interval, 0.5,
                              McConfig(alpha=1.5, paths=20_000, dt=2e-3, t_max=2.0, seed=11)),
        "interval-alpha2": (interval, 0.5,
                            McConfig(alpha=2.0, paths=20_000, dt=2e-3, t_max=2.0, seed=11)),
        "rect-alpha1.5": (rect_domain, np.array([0.5, 0.0]),
                          McConfig(alpha=1.5, paths=20_000, dt=2e-3, t_max=2.0, seed=47)),
    }
    got = {name: _tally_digest(simulate_skeleton(*run)) for name, run in runs.items()}
    assert got == STREAM_PINS


@pytest.mark.parametrize("t_max, dt", [(0.7, 1e-3), (0.3, 0.1), (1.4, 5e-4), (3.8, 2e-3),
                                        (4.6, 5e-3), (19.9, 0.01), (4.6, 2e-3)])
def test_skeleton_runs_to_t_max(interval, t_max, dt):
    # t_max / dt lies just below an integer in floating point for all but the
    # last case (0.7 / 1e-3 is 699.9999999999999), and rounding it down lost
    # the last step; in the last, 2300 * 2e-3 rounds away from 4.6
    cfg = McConfig(alpha=1.0, paths=200, dt=dt, t_max=t_max, seed=1, record_stride=1)
    curve = simulate_skeleton(interval, 0.5, cfg)
    assert curve.times.size == round(t_max / dt)
    assert curve.times[-1] == t_max


def test_skeleton_step_count_rounds_down_off_the_grid(interval):
    # a t_max between two steps keeps the last whole step
    cfg = McConfig(alpha=1.0, paths=200, dt=0.1, t_max=1.05, seed=1, record_stride=1)
    curve = simulate_skeleton(interval, 0.5, cfg)
    assert curve.times.size == 10
    assert curve.times[-1] == 10 * 0.1


def test_lambda1_against_galerkin(base_curve):
    est = estimate_lambda1(base_curve)
    assert abs(est.value - GALERKIN_LAMBDA1) < 4 * est.stderr
    assert est.stderr < 0.1


def test_lambda1_alpha2_against_shifted_barrier(interval):
    # Brownian skeleton: discrete monitoring acts like an enlarged interval
    # of half-width 1 + 0.5826 sqrt(2 dt) (Broadie-Glasserman-Kou)
    dt = 1e-3
    cfg = McConfig(alpha=2.0, paths=150_000, dt=dt, t_max=4.0, seed=5)
    curve = survival_curve(interval, 0.0, cfg)
    est = estimate_lambda1(curve)
    l_eff = 1.0 + 0.5826 * np.sqrt(2 * dt)
    oracle = (np.pi / (2 * l_eff)) ** 2
    assert abs(est.value - oracle) < 4 * est.stderr


@pytest.mark.parametrize("case", ["interval-alpha1", "interval-alpha1.5", "rect-alpha1",
                                  "interval-alpha1-tail", "rect-alpha1-tail"])
def test_tallies_identical_on_one_thread(case, interval, rect_domain, monkeypatch):
    # each stream writes only its own partitions' rows, so the tallies do not
    # depend on how many threads the streams share; the tail cases run 2 000
    # paths a stream to t = 4, drawn in chunks of whole records throughout
    domain, x = (rect_domain, np.array([0.5, 0.0])) if case.startswith("rect") else (interval, 0.5)
    tail = case.endswith("-tail")
    cfg = McConfig(alpha=1.5 if case.endswith("1.5") else 1.0, paths=4_000 if tail else 20_000,
                   dt=2e-3, t_max=4.0 if tail else 1.0, seed=13)
    default = simulate_skeleton(domain, x, cfg)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    one = simulate_skeleton(domain, x, cfg)
    for name in ("times", "counts", "plus", "minus"):
        assert np.array_equal(getattr(default, name), getattr(one, name)), name


def test_streams_on_more_threads_than_cores(interval, monkeypatch):
    # eight streams on eight threads that switch every microsecond write
    # disjoint rows of the shared tallies: a lost or crossed update would
    # make them differ from the same eight streams run one after another
    cfg = McConfig(alpha=1.0, paths=8_000, dt=2e-3, t_max=0.5, seed=19, partitions=16)
    monkeypatch.setattr(montecarlo, "_STREAMS", 8)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    serial = simulate_skeleton(interval, 0.5, cfg)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 8)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = simulate_skeleton(interval, 0.5, cfg)
    finally:
        sys.setswitchinterval(switch)
    assert montecarlo.stream_count(cfg) == 8
    assert np.all(serial.counts[:, 0] > 0)
    for name in ("counts", "plus", "minus"):
        assert np.array_equal(getattr(serial, name), getattr(threaded, name)), name


@pytest.mark.parametrize("partitions, t_max, stride", [(1, 1.0, 10), (3, 1.0, 10), (3, 1.05, 4)],
                         ids=["one-stream", "three-partitions", "partial-last-stride"])
def test_stream_blocks_edge_cases(interval, partitions, t_max, stride):
    # one partition is one stream; three split 1 + 2; steps past the last
    # record time are not tallied
    paths = 3_000
    cfg = McConfig(alpha=1.0, paths=paths, dt=0.01, t_max=t_max, seed=5,
                   record_stride=stride, partitions=partitions)
    curve = simulate_skeleton(interval, 0.5, cfg)
    n_rec = round(t_max / 0.01) // stride
    assert montecarlo.stream_count(cfg) == min(2, partitions)
    assert curve.times.size == n_rec
    assert np.allclose(curve.times, 0.01 * stride * np.arange(1, n_rec + 1))
    for tally in (curve.counts, curve.plus, curve.minus):
        assert tally.shape == (partitions, n_rec)
    assert np.all(curve.plus + curve.minus == curve.counts)
    assert np.all(np.diff(curve.counts, axis=1) <= 0)
    # partition p holds the paths i with i * partitions // paths == p
    sizes = np.bincount(np.arange(paths) * partitions // paths, minlength=partitions)
    assert np.all(curve.counts <= sizes[:, None])


@pytest.mark.parametrize("paths, partitions", [(1001, 3), (150, 200), (1, 2), (7, 1)])
def test_every_path_tallied_in_its_partition(interval, paths, partitions):
    # Gaussian steps of standard deviation 1.4e-4 do not carry a path from 0
    # out of (-1, 1) in ten steps, so every path is alive at every record
    # time, in the partition i * partitions // paths of its index i, whichever
    # stream simulated it
    cfg = McConfig(alpha=2.0, paths=paths, dt=1e-8, t_max=1e-7, seed=3, record_stride=2,
                   partitions=partitions)
    curve = simulate_skeleton(interval, 0.0, cfg)
    sizes = np.bincount(np.arange(paths) * partitions // paths, minlength=partitions)
    assert curve.counts.shape == (partitions, 5)
    assert np.array_equal(curve.counts, np.repeat(sizes[:, None], 5, axis=1))


@pytest.mark.parametrize("parts", [slice(0, 6), slice(2, 6), slice(4, 9)],
                         ids=["first-block", "later-block", "empty-tail"])
def test_tally_matches_three_bincounts(parts):
    # the one-bincount tally against one bincount per tally: a survivor at
    # x1 = 0 is alive and in neither half; partitions 3 and those past 5 hold
    # no survivor, and a block may start past partition 0
    part = np.array([0, 0, 1, 2, 2, 2, 4, 5, 5], dtype=np.int32)
    x1 = np.array([0.3, -0.2, 0.0, -0.5, 0.0, 0.7, -1e-300, 1e-300, 0.9])
    keep = (part >= parts.start) & (part < parts.stop)
    part, x1 = part[keep], x1[keep]
    # one record with every path alive, each path keyed as the stream carries it
    width = parts.stop - parts.start
    got = montecarlo._tally(3 * (part - parts.start) + 1, x1[None], width,
                            np.ones((1, part.size), dtype=bool))
    got = [g[:, 0] for g in got]
    expected = [np.bincount(part[sel], minlength=parts.stop)[parts]
                for sel in (slice(None), x1 > 0, x1 < 0)]
    for name, g, e in zip(("counts", "plus", "minus"), got, expected):
        assert g.shape == (width,), name
        assert np.array_equal(g, e), name
    counts, plus, minus = got
    assert np.all(plus + minus <= counts)
    for p, alive, right, left in ((1, 1, 0, 0), (2, 3, 1, 1), (3, 0, 0, 0), (8, 0, 0, 0)):
        if parts.start <= p < parts.stop:
            q = p - parts.start
            assert (counts[q], plus[q], minus[q]) == (alive, right, left), p


@pytest.mark.parametrize("parts", [slice(0, 6), slice(2, 6), slice(4, 9)],
                         ids=["first-block", "later-block", "empty-tail"])
@pytest.mark.parametrize("records", [1, 2, 5])
def test_tally_over_records_matches_one_bincount_per_record(parts, records):
    # the tally of k records from one bincount keyed by record, against the
    # three bincounts of each record's survivors on their own
    rng = np.random.default_rng(records)
    part = np.repeat(np.arange(parts.start, parts.stop, dtype=np.int32), 3)[::2]
    x1 = rng.choice([-0.5, -1e-300, 0.0, 1e-300, 0.4], size=(records, part.size))
    alive = np.logical_and.accumulate(rng.random((records, part.size)) < 0.8, axis=0)
    width = parts.stop - parts.start
    got = montecarlo._tally(3 * (part - parts.start) + 1, x1, width, alive)
    for name, g in zip(("counts", "plus", "minus"), got):
        assert g.shape == (width, records), name
    for r in range(records):
        sel = alive[r]
        expected = [np.bincount(part[sel][keep], minlength=parts.stop)[parts]
                    for keep in (slice(None), x1[r, sel] > 0, x1[r, sel] < 0)]
        for name, g, e in zip(("counts", "plus", "minus"), got, expected):
            assert np.array_equal(g[:, r], e), (name, r)


class _ScriptedSteps:
    """_draw_steps stand-in for a 1D domain that hands path i the increments
    inc[:, i] in order, as steps of shape (rows, paths, 1). It follows the
    compaction of the stream it feeds by stepping every path itself: when the
    stream asks for fewer columns, the paths it kept are those still alive at
    the last step drawn."""

    def __init__(self, domain, x, inc):
        self.inc, self.step, self.shapes = inc, 0, []
        self.ids = np.arange(inc.shape[1])
        self.alive = np.logical_and.accumulate(domain.contains(_running(x, inc)[..., None]),
                                               axis=0)

    def __call__(self, cfg, dim, rng, shape):
        rows, m = shape
        if m < len(self.ids):
            self.ids = self.ids[self.alive[self.step - 1, self.ids]]
        assert len(self.ids) == m
        self.shapes.append(shape)
        out = self.inc[self.step : self.step + rows, self.ids, None].copy()
        self.step += rows
        return out


def _running(x, inc):
    # positions after each step, summed one step at a time
    path = inc.copy()
    path[0] += x
    for j in range(1, len(path)):
        path[j] += path[j - 1]
    return path


def _per_step_tallies(domain, x, cfg, inc):
    # the tallies of paths observed at every step, killed at their first
    # step outside D, and counted at every record_stride-th step
    path = _running(x, inc)
    alive = np.logical_and.accumulate(domain.contains(path[..., None]), axis=0)
    stride = cfg.record_stride
    rec = slice(stride - 1, len(inc) - len(inc) % stride, stride)
    part = np.arange(cfg.paths) * cfg.partitions // cfg.paths
    tallies = []
    for keep in (alive[rec], alive[rec] & (path[rec] > 0), alive[rec] & (path[rec] < 0)):
        tallies.append(np.stack([np.bincount(part[k], minlength=cfg.partitions) for k in keep],
                                axis=1))
    return tallies


# the draws of the scripted run below, as (shape, repeats): pieces of
# DRAW_ENTRIES // m steps while one record of the m survivors does not fit,
# then DRAW_ENTRIES // (10 m) whole records at a time
SCRIPTED_DRAWS = {
    (60, 300): [((5, 60), 2), ((5, 59), 2), ((5, 53), 2), ((7, 41), 1), ((3, 41), 1),
                ((7, 38), 1), ((3, 38), 1), ((8, 34), 1), ((2, 34), 1), ((9, 32), 1),
                ((1, 32), 1), ((10, 28), 1), ((10, 26), 1), ((10, 23), 1), ((10, 19), 1),
                ((10, 17), 2), ((10, 16), 1), ((20, 14), 1), ((20, 12), 1), ((20, 8), 1)],
    (600, 700): [((1, 600), 10), ((1, 536), 10), ((1, 454), 10), ((1, 394), 10),
                 ((2, 345), 5), ((2, 319), 5), ((2, 277), 5), ((2, 252), 5),
                 ((3, 229), 3), ((1, 229), 1), ((3, 210), 3), ((1, 210), 1),
                 ((3, 194), 3), ((1, 194), 1), ((3, 179), 3), ((1, 179), 1),
                 ((4, 165), 2), ((2, 165), 1), ((4, 149), 2), ((2, 149), 1), ((5, 131), 2),
                 ((6, 112), 1), ((4, 112), 1), ((6, 104), 1), ((4, 104), 1), ((7, 91), 1),
                 ((3, 91), 1), ((8, 79), 1), ((2, 79), 1), ((10, 70), 1)],
}


@pytest.mark.parametrize("paths, draw_entries",
                         [(60, montecarlo.DRAW_ENTRIES), (60, 300), (600, montecarlo.DRAW_ENTRIES),
                          (600, 700)],
                         ids=["one-narrow-chunk", "row-chunks-first", "one-wide-chunk",
                              "one-step-pieces"])
def test_path_that_leaves_and_returns_inside_a_chunk_stays_dead(interval, paths, draw_entries,
                                                                 monkeypatch):
    # path 0 sits at 0.5 until step 53, jumps to 1.5 (outside D) and is back
    # at 0.5 after step 54; its record time is step 59. With the whole run in
    # one chunk (60 paths take the numpy accumulations, 600 the row loops),
    # with row pieces of 5 steps until one record of the survivors fits and
    # whole records after that, and with pieces of one step and more, the
    # tallies are those of stepping every path one step at a time, and path 0
    # is dead from step 59 on
    cfg = McConfig(alpha=1.0, paths=paths, dt=0.01, t_max=2.0, seed=1, partitions=3)
    inc = np.random.default_rng(5).normal(0.0, 0.1, size=(200, cfg.paths))
    inc[:, 0] = 0.0
    inc[53, 0], inc[54, 0] = 1.0, -1.0
    steps = _ScriptedSteps(interval, 0.5, inc)
    monkeypatch.setattr(montecarlo, "_STREAMS", 1)
    monkeypatch.setattr(montecarlo, "DRAW_ENTRIES", draw_entries)
    monkeypatch.setattr(montecarlo, "_draw_steps", steps)
    curve = simulate_skeleton(interval, 0.5, cfg)
    draws = SCRIPTED_DRAWS.get((paths, draw_entries), [((200, paths), 1)])
    assert steps.shapes == [shape for shape, repeats in draws for _ in range(repeats)]
    expected = _per_step_tallies(interval, 0.5, cfg, inc)
    for name, got, want in zip(("counts", "plus", "minus"), (curve.counts, curve.plus, curve.minus),
                               expected):
        assert np.array_equal(got, want), name
    # against the same paths without the excursion, partition 0 has one path
    # fewer from the record at step 59 on, and the same count before it
    inc[53, 0] = inc[54, 0] = 0.0
    stays = _per_step_tallies(interval, 0.5, cfg, inc)[0]
    lost = stays[0] - curve.counts[0]
    assert lost.tolist() == [0] * 5 + [1] * 15
    assert np.array_equal(stays[1:], curve.counts[1:])
    assert curve.counts[:, -1].sum() < cfg.paths - 1  # other paths die too


def test_record_times_inside_one_chunk_match_the_oracle(interval):
    # 40 000 paths, two streams of 20 000, a stride of one step: a chunk holds
    # six records, so all four record times come from one chunk, each the
    # skeleton probability of the observations up to it
    cfg = McConfig(alpha=1.0, paths=40_000, dt=0.25, t_max=1.0, seed=17, record_stride=1)
    assert montecarlo.DRAW_ENTRIES // (cfg.record_stride * cfg.paths // 2) >= 4
    curve = survival_curve(interval, 0.5, cfg)
    assert curve.times.tolist() == [0.25, 0.5, 0.75, 1.0]
    for j in range(4):
        oracle = skeleton_survival(interval, 0.5, curve.times[: j + 1])
        assert abs(curve.survival[j] - oracle) < 4 * curve.stderr[j], curve.times[j]


def test_monitoring_inside_a_record_stride(interval):
    # the skeleton is observed at every step, not only at record times: with
    # four steps per stride, survival at t = 1 is the four-observation
    # skeleton probability (observing only t = 1 would give about 0.460)
    cfg = McConfig(alpha=1.0, paths=400_000, dt=0.25, t_max=1.0, seed=17, record_stride=4)
    curve = survival_curve(interval, 0.5, cfg)
    assert curve.times.tolist() == [1.0]
    oracle = skeleton_survival(interval, 0.5, [0.25, 0.5, 0.75, 1.0])
    assert abs(curve.survival[0] - oracle) < 4 * curve.stderr[0]


def test_coarse_skeleton_matches_quadrature_oracle(interval):
    # with dt = 0.5 and record_stride 1 the simulated survival at t = 1.0 is
    # the two-observation skeleton probability, computable by quadrature
    cfg = McConfig(alpha=1.0, paths=400_000, dt=0.5, t_max=1.0, seed=17,
                   record_stride=1)
    curve = survival_curve(interval, 0.5, cfg)
    j = int(np.argmin(np.abs(curve.times - 1.0)))
    mc = curve.survival[j]
    se = curve.stderr[j]
    oracle = skeleton_survival(interval, 0.5, [0.5, 1.0])
    assert abs(mc - oracle) < 4 * se


def test_dt_refinement_kills_more_paths(interval):
    # finer monitoring can only lower survival, up to noise
    t_probe = 2.0
    vals = {}
    for dt in (4e-3, 1e-3):
        cfg = McConfig(alpha=1.0, paths=150_000, dt=dt, t_max=2.5, seed=23)
        curve = survival_curve(interval, 0.5, cfg)
        j = int(np.argmin(np.abs(curve.times - t_probe)))
        vals[dt] = (curve.survival[j], curve.stderr[j])
    coarse, fine = vals[4e-3], vals[1e-3]
    assert fine[0] <= coarse[0] + 3 * np.hypot(coarse[1], fine[1])


def test_stderr_scales_with_paths(interval):
    # pointwise survival stderr is binomial: 4x the paths halves it
    t_probe = 2.0
    ses = []
    for paths in (50_000, 200_000):
        cfg = McConfig(alpha=1.0, paths=paths, dt=2e-3, t_max=2.5, seed=29)
        curve = survival_curve(interval, 0.5, cfg)
        j = int(np.argmin(np.abs(curve.times - t_probe)))
        ses.append(curve.stderr[j])
    ratio = ses[0] / ses[1]
    assert 1.8 < ratio < 2.2


def test_phi1_ratio_against_galerkin(interval, base_curve, interval_128):
    lam = estimate_lambda1(base_curve)
    a = estimate_phi1(base_curve, 3.0, lam)
    cfg0 = McConfig(alpha=1.0, paths=200_000, dt=1e-3, t_max=10.0, seed=31)
    curve0 = survival_curve(interval, 0.0, cfg0)
    b = estimate_phi1(curve0, 3.0, lam)
    phi = interval_128.eigenfunction(1)
    expected = phi(np.array([[0.5]]))[0] / phi(np.array([[0.0]]))[0]
    got = a.value / b.value
    rel_se = got * np.hypot(a.stderr / a.value, b.stderr / b.value)
    assert abs(got - expected) < 4 * rel_se + 0.02


def _exact_curve(survival, times, paths=10_000_000):
    # a curve whose alive counts follow survival(times) to the nearest path
    counts = np.rint(paths * survival(times))[None, :].astype(np.int64)
    cfg = McConfig(alpha=1.0, paths=paths, dt=1e-3, t_max=float(times[-1]), partitions=1)
    return montecarlo.SurvivalCurve(times, counts, counts, 0 * counts, cfg, np.array([0.5]))


def test_phi1_plateau_allows_for_the_lambda1_error():
    # an exact exp(-s) curve read with lambda1 off by 1.5 of its stderrs:
    # exp(lambda1 s) S(s) tilts by 1.5 stderrs per unit of s, which the
    # survival stderrs alone do not cover; a second mode that has not
    # decayed by t still fails the plateau rule
    times = np.linspace(0.0, 4.0, 401)
    lam = McEstimate(1.0 + 1.5 * 0.005, 0.005, 10_000)
    one = _exact_curve(lambda s: 0.8 * np.exp(-s), times)
    est = estimate_phi1(one, 3.0, lam)
    assert est.value == pytest.approx(0.8 * np.exp(1.5 * 0.005 * 3.0), rel=1e-5)
    with pytest.raises(EstimationError):
        estimate_phi1(one, 3.0, McEstimate(lam.value, 0.0, 10_000))
    two = _exact_curve(lambda s: 0.6 * np.exp(-s) + 0.3 * np.exp(-2.0 * s), times)
    with pytest.raises(EstimationError):
        estimate_phi1(two, 3.0, lam)


def test_gap_star_against_galerkin(interval, base_curve):
    est = estimate_gap_star(interval, base_curve)
    assert est.value > 0
    assert abs(est.value - GALERKIN_GAP) < 4 * est.stderr
    assert "window_start" in est.diagnostics


def test_gap_star_needs_positive_start(interval):
    cfg = McConfig(alpha=1.0, paths=500, dt=5e-3, t_max=1.0, seed=3)
    with pytest.raises(ValidationError):
        estimate_gap_star(interval, survival_curve(interval, -0.5, cfg))


def test_gap_star_noise_floor(interval):
    cfg = McConfig(alpha=1.0, paths=500, dt=5e-3, t_max=8.0, seed=41)
    with pytest.raises(EstimationError):
        estimate_gap_star(interval, survival_curve(interval, 0.5, cfg))


def test_estimate_lambda1_needs_survivors(interval):
    cfg = McConfig(alpha=1.0, paths=300, dt=5e-3, t_max=10.0, seed=43)
    curve = survival_curve(interval, 0.5, cfg)
    with pytest.raises(EstimationError):
        estimate_lambda1(curve, min_survivors=100_000)


def test_rectangle_curve(rect_domain):
    cfg = McConfig(alpha=1.0, paths=30_000, dt=2e-3, t_max=3.0, seed=47)
    curve = survival_curve(rect_domain, np.array([0.5, 0.0]), cfg)
    assert np.all(np.diff(curve.alive) <= 0)
    assert curve.alive[-1] > 0


# the exact to_json() of both decay-rate estimators: each window search is a
# function of the tallies alone, so a rewrite of it or of the simulation that
# keeps the tallies keeps these to the last bit. The base curve is the
# 200 000-path interval run at alpha = 1, the rectangle curve that of
# test_rectangle_curve
ESTIMATE_PINS = {
    "interval-lambda1": {"schema": 1, "value": 1.1718783068781886, "stderr": 0.015375327126354558,
                         "n_effective": 101,
                         "diagnostics": {"window_start": 0.01, "window_end": 6.48}},
    "interval-gap_star": {"schema": 1, "value": 1.5760834549515654, "stderr": 0.06402657859534826,
                          "n_effective": 41752,
                          "diagnostics": {"window_start": 0.75, "window_end": 1.34,
                                          "bootstrap_samples": 200}},
    "rect-lambda1": {"schema": 1, "value": 1.3720702609977824, "stderr": 0.01905875655960335,
                     "n_effective": 644, "diagnostics": {"window_start": 1.0, "window_end": 3.0}},
    "rect-gap_star": {"schema": 1, "value": 0.7448690722590667, "stderr": 0.03670352399693202,
                      "n_effective": 6936,
                      "diagnostics": {"window_start": 0.44, "window_end": 1.28,
                                      "bootstrap_samples": 200}},
}


def test_estimate_pins(interval, rect_domain, base_curve):
    cfg = McConfig(alpha=1.0, paths=30_000, dt=2e-3, t_max=3.0, seed=47)
    rect = survival_curve(rect_domain, np.array([0.5, 0.0]), cfg)
    got = {}
    for name, domain, curve in (("interval", interval, base_curve), ("rect", rect_domain, rect)):
        got[f"{name}-lambda1"] = estimate_lambda1(curve).to_json()
        got[f"{name}-gap_star"] = estimate_gap_star(domain, curve).to_json()
    assert got == ESTIMATE_PINS


def test_window_refusal_pins(interval):
    # each window search refuses in its own words: 3 000 Brownian paths
    # whose block rates never agree, and an exact signed ratio
    # 0.5 e^-t + 0.4 e^-3t whose second mode never dies out by t = 2
    cfg = McConfig(alpha=2.0, paths=3_000, dt=2e-3, t_max=3.0, seed=90)
    with pytest.raises(EstimationError) as lam:
        estimate_lambda1(survival_curve(interval, 0.5, cfg))
    assert str(lam.value) == ("no stable fitting window: survival decay rate never settles "
                              "within tolerance")
    times = np.linspace(0.01, 2.0, 200)
    alive = np.rint(1e12 * np.exp(-times)).astype(np.int64)
    plus = np.rint(alive * (1.0 + 0.5 * np.exp(-times) + 0.4 * np.exp(-3.0 * times)) / 2)
    plus = plus.astype(np.int64)
    curve = montecarlo.SurvivalCurve(times, alive[None], plus[None], (alive - plus)[None],
                                     McConfig(paths=10**12, dt=0.01, t_max=2.0, partitions=1),
                                     np.array([0.5]))
    with pytest.raises(EstimationError) as gap:
        estimate_gap_star(interval, curve)
    assert str(gap.value) == "no stable fitting window: signed decay rate never settles"


def test_time_to_equilibrium_bounds():
    lo, hi = time_to_equilibrium_bounds(1.6, 0.01, 2.0)
    assert lo == pytest.approx(np.log(100.0) / 1.6)
    assert hi == pytest.approx(2.0 + np.log(100.0) / 1.6)
    assert lo < hi
    with pytest.raises(ValidationError):
        time_to_equilibrium_bounds(-1.0, 0.01, 2.0)
    with pytest.raises(ValidationError):
        time_to_equilibrium_bounds(1.0, 2.0, 2.0)


def test_curve_rows_roundtrip(base_curve):
    rows = base_curve.rows()
    assert len(rows) == base_curve.times.size
    t, s, se = rows[0]
    assert t == base_curve.times[0]
    assert s == base_curve.survival[0]


def _dim_comparisons(node, owner=None):
    """(innermost enclosing function, comparison) for every comparison under
    node that reads a name `dim` or an attribute `.dim`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.Compare) and any(
            isinstance(n, ast.Name) and n.id == "dim" or isinstance(n, ast.Attribute)
            and n.attr == "dim" for n in ast.walk(node)):
        yield owner, node
    for child in ast.iter_child_nodes(node):
        yield from _dim_comparisons(child, owner)


def test_simulation_compares_the_dimension_once():
    # one code path in every dimension: positions and steps are (paths, d)
    # arrays throughout, and the one question the simulation asks of d is
    # whether a step is a direct stable draw on the line. A new 1D branch
    # fails here
    source = Path(montecarlo.__file__).read_text()
    found = [(owner, ast.get_source_segment(source, node))
             for owner, node in _dim_comparisons(ast.parse(source))]
    assert found == [("_draw_steps", "dim == 1")]
