"""Harmonic extensions of killed-process eigenfunctions to the upper half-space.

For an eigenfunction phi_n of the Cauchy process (alpha = 1) on D, the
Poisson-type extension u_n(x, t) = P_t phi_n(x) is harmonic on the half-space
R^d x (0, inf), equals phi_n at t = 0 on D, vanishes at t = 0 outside D, and
satisfies du/dt = -lambda_n phi_n on D at the boundary. Spectral gaps turn
into the weighted Dirichlet energy

    Q(w, w) = integral over the half-space of |grad w|^2 u_1^2,

evaluated here for w = u_n / u_1 on a truncated box with graded tensor
quadrature and analytic gradients. The engine has one output: at heights
t > 0, each extension's value together with its x- and t-derivatives. The
boundary values at t = 0 are the eigenfunctions themselves
(SpectralResult.eigenfunction), which no extension is asked for.

An extension is a spectral result and a mode number, or the quotient of two
modes of one result (u_n / u_1 in the gap identity). Every extension value
and gradient goes through _eval_fields, the one place that builds an engine:
it gathers the modes of each result that its fields name and evaluates them
in one engine pass over the result's basis.

Extensions are evaluated through Gaussian subordination: smoothing a sine
mode by the heat kernel has a closed form in the complex error function, and
the subordinator integral in the auxiliary time s is the log-panel rule of
kernels.subordination_grid, restricted for each call to the chunks of nodes
that carry weight at its times (the subordinator density is negligible for
s far below t^2). This is numerically equivalent to quadrature of the Cauchy
kernel against phi_n but vectorizes over (mode, point, time) and stays
accurate for small t.

The closed form takes the complex error function at the two edge offsets
h - u and -h - u of each point (u = x - c in the window (c - h, c + h)).
Its Faddeeva term at an offset r is at most e^(-a^2), a = |r| / (2 sqrt s),
so within a chunk it is evaluated only on the run of points in Gaussian
reach of the edge (_reach): along the point axis, from the first point
where a at the chunk's largest node is below _A_CUT to the last. The run is
written in place into a slice view of the output (_scaled_erf); the points
outside it take the rest of the closed form exactly and differ by less
than 2^-64. Every caller builds sorted grids, on which the run holds
exactly the points in reach; on an unsorted axis it also holds points out
of reach, which take the term exactly. This is the per-point counterpart
of the chunk restriction, and the skipped set depends on the points and
the chunk alone. Each pass turns the live modes of each axis into a window
table (_window_table), which the smoothed modes read and from which the
engine tallies the same runs: the Faddeeva entries that it evaluated and
skipped (ExtensionEngine.faddeeva_entries), which the energy checks report.
Sine mode k is even about c for odd k and odd for even k, and on a domain
symmetric about a coordinate axis every eigenfunction is even or odd: the
solve's blocks make its coefficients on the other parity exact zeros. So
the engine groups the rows it is given by their live modes and evaluates
each group with those alone, which for an eigenvector are the modes of its
parity (see ExtensionEngine.values); it evaluates every point it is given.
Mirror symmetry of the points is the callers' business: where the probed or
integrated quantity is exactly even on an axis whose windows are exact
mirrors about 0 (_mirror_parity), the energy quadratures and the probes
evaluate only the second half of their rules, which are exactly closed
under x -> -x (mirror_linspace, union_linspaces). An integral doubles the kept weights off
the centre and an extremum needs no weights (_half_rules). So the centred
gap checks evaluate half of the 1D grid and a quarter of the 2D one, with
half of each axis's modes, and hold their field arrays on that part alone.
Odd pairings, mixed rows, off-centre windows and domains symmetric only to
within a tolerance keep the full rule.

The engine loop is the same in one and two dimensions (d = 3 is refused,
_require_extendable) and runs in two phases.
Phase 1 evaluates the smoothed modes of a chunk of nodes and sums them
against the coefficients; it is mapped over a batch of chunks, on one thread
per CPU of the process's affinity mask in a 1D pass large enough to pay for
them, else inline. Phase 2 then contracts each chunk with its subordination
weights over time, in the calling thread and in the serial order, so the
values are bit-identical whatever the thread count. The time contractions
are held back to phase 2 so that they run in that order. In 1D each is a
series of row blocks small enough that OpenBLAS keeps them on one thread:
after a multithreaded product the idle OpenBLAS worker spins on a core for
a while, which the Faddeeva jobs need. The blocks depend on the shapes
alone, so these products round the same on any number of BLAS threads;
so are the 1D mode sums of phase 1 (_contract), blocks of whole points.
A 2D pass, bound by its contractions, keeps one engine thread
(engine_workers) and one BLAS product per term, on the BLAS threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from ._cpu import cpu_count as _cpu_count
from ._quad import (
    axis_rules,
    log_panels,
    mirror_linspace,
    panel_gauss,
    tensor_points,
)
from .errors import UnsupportedConfigurationError, ValidationError
from .eigensolver import _CHUNK_ENTRIES, SineBasis, SpectralResult, mirror_index, mode_parity
from .geometry import as_points
from .kernels import subordination_grid, subordinator_density_half


@dataclass(frozen=True)
class Truncation:
    """Box (-R, R)^d x (eps, T) on which half-space integrals are evaluated;
    default_truncation(dim) gives the default box of each dimension."""

    eps: float
    t_max: float
    x_max: float

    def validate(self):
        if not (0 < self.eps < self.t_max < np.inf and 0 < self.x_max < np.inf):
            raise ValidationError("need finite 0 < eps < t_max and x_max > 0")


def default_truncation(dim):
    return Truncation(1e-3, 30.0, 60.0) if dim == 1 else Truncation(1e-3, 20.0, 40.0)


def _truncation(trunc, dim):
    """trunc, or the default box of dimension dim when it is None; validated."""
    trunc = default_truncation(dim) if trunc is None else trunc
    trunc.validate()
    return trunc


def check_truncation(trunc, domain):
    """Validate trunc for the energy checks of domain: besides
    Truncation.validate, the box must reach past the domain, x_max above
    its half-extent about 0 on every axis. Cheap, so callers can run it
    before the solve."""
    trunc.validate()
    extent = max(abs(v) for box in domain.bounding_box() for v in box)
    if not trunc.x_max > extent:
        raise ValidationError(
            f"x_max {trunc.x_max:g} must exceed the domain's half-extent {extent:g}"
        )


# ---------------- closed-form Gaussian smoothing of sine modes ----------------


# the Faddeeva term of _scaled_erf is evaluated at a point only where
# a = |r| / (2 sqrt s) at the largest node is below this cut: elsewhere it is
# at most e^(-a^2) < e^(-_A_CUT^2) = 3.2e-20 <= 2^-64, and it is left out
_A_CUT = 6.7


def wofz(z, out=None):
    """The Faddeeva function w(z) = e^(-z^2) erfc(-i z), scipy's, imported on
    the first call; _scaled_erf calls it by this module name."""
    from scipy.special import wofz as faddeeva

    return faddeeva(z, out=out)


def _reach(r, s):
    """The run of points in Gaussian reach of a window edge at the offsets r,
    where the Faddeeva term of _scaled_erf can exceed e^(-_A_CUT^2) at some
    node of s: as (k, run), k the last axis along which r varies (the point
    axis of the engine) and run the slice of it from the first point whose
    a = |r| / (2 sqrt s), taken at the largest node, is below _A_CUT to the
    last; run is None when no point is in reach. Where r varies along no
    axis, k is None and the run is its one point or nothing. On a sorted
    point axis the run is exactly the set of points in reach."""
    near = np.abs(r) / (2.0 * np.sqrt(np.max(s))) < _A_CUT
    k = max((i for i, n in enumerate(near.shape) if n > 1), default=None)
    hit = np.flatnonzero(near if k is None else
                         near.any(axis=tuple(i for i in range(near.ndim) if i != k)))
    return k, slice(hit[0], hit[-1] + 1) if hit.size else None


def _scaled_erf(r, omega, s):
    """e^(-omega^2 s) * erf((r - 2 i omega s) / (2 sqrt s)), overflow-safe.

    All arguments broadcast; omega >= 0, s > 0, r real. Uses
    erfc(q) = e^(-q^2) w(iq) with the Faddeeva function w, whose argument is
    kept in the upper half-plane by the sign symmetry in r: the value at
    r < 0 is minus the conjugate of the value at |r|. So the value at |r| is
    e^(-omega^2 s) - E with E = e^(-a^2) e^(i omega |r|) w(omega sqrt s + i a),
    a = |r| / (2 sqrt s). |w| <= 1 on the closed upper half-plane
    (Abramowitz and Stegun 7.1), so |E| <= e^(-a^2), and E is evaluated only
    on the run of points in reach of the window edge (_reach): the output is
    filled with e^(-omega^2 s), and e^(-omega^2 s) - E is written in place
    into the run's slice view. Outside the run the value is e^(-omega^2 s)
    exactly, off by less than 2^-64. On a sorted point axis the run holds
    exactly the points in reach, so the skipped set depends on the points
    and the nodes alone; on an unsorted one the points of the run out of
    reach take E too. The prefactor of w is applied in place as a real
    exponential, which needs s, times a unit phase, which does not. The
    parts of the argument and the real exponential that depend on r are
    built at the broadcast shape of r and s alone, so they are shared by
    every omega of one window: r without a mode axis costs them once.
    """
    shape = np.broadcast_shapes(np.shape(r), np.shape(omega), np.shape(s))
    r, omega, s = (np.reshape(a, (1,) * (len(shape) - np.ndim(a)) + np.shape(a))
                   for a in (r, omega, s))
    g = np.exp(-(omega**2) * s)
    S = np.empty(shape, dtype=complex)
    S[...] = g
    k, run = _reach(r, s)
    if run is not None:  # slice the operands that vary along the point axis
        ra, om, sc, gc, E = (a if k is None or a.shape[k] == 1 else a[(slice(None),) * k + (run,)]
                             for a in (np.abs(r), omega, s, g, S))
        inv = 1.0 / (2.0 * np.sqrt(sc))  # (2 omega s + i|r|) / (2 sqrt s), part by part
        E.real = 2.0 * om * sc * inv
        E.imag = ra * inv
        wofz(E, out=E)  # in place
        E *= np.exp(-(ra**2) / (4.0 * sc))
        E *= np.exp(1j * om * ra)
        np.subtract(gc, E, out=E)
    np.negative(S.real, out=S.real, where=r < 0)
    return S


def smoothed_sine_mode(x, s, omega, center, half):
    """Heat-kernel smoothing of the unit sine mode of an interval:

    (4 pi s)^(-1/2) * integral over (c-h, c+h) of
        exp(-(x-y)^2 / (4 s)) sin(omega (y - c + h)) / sqrt(h) dy.

    All arguments broadcast; with every argument a scalar the result is 0-d.
    The engine passes one window (a scalar center and half), x[None, :, None],
    omega (modes, 1, 1) and s (1, 1, nodes), so that the parts of _scaled_erf
    that depend on the point alone are built once for all modes. Returns
    the pair (value, d/dx value); the derivative holds for the basis
    frequencies omega = k pi / (2 h): such a mode vanishes at both ends of
    its window, so the x-derivative is the smoothing of
    omega cos(omega (y - c + h)) / sqrt(h), the real part of the complex
    expression whose imaginary part is the value.

    The closed form takes _scaled_erf at the two edge offsets h - u and
    -h - u, u = x - c. A mode of parity p about c (mode_parity) takes p times
    its value at -u, d/dx -p times; the quadratures and probes use this to
    evaluate even quantities on the second half of their mirror grids
    (_half_rules). The complex arrays of the full shape are written in
    place: the first _scaled_erf result takes the difference and the phase.
    """
    u = np.asarray(x, dtype=float) - center
    Z = _scaled_erf(half - u, omega, s)
    Z -= _scaled_erf(-half - u, omega, s)
    # in place, the phase first: numpy's complex product is not symmetric to the bit
    np.multiply(np.exp(1j * omega * (u + half)) * 0.5, Z, out=Z)
    scale = 1.0 / np.sqrt(half)
    return scale * np.imag(Z), scale * omega * np.real(Z)


# ---------------- evaluation engine ----------------

_S_CHUNK = 24  # subordination nodes per pass of the mode kernel
# a chunk is evaluated when some node in it carries at least this share of
# the largest value or d/dt weight at some time
_WEIGHT_FLOOR = 1e-16
# an engine pass goes to worker threads only from this many smoothed-mode
# entries (modes x points x nodes, summed over the axes; about 10 ms of
# Faddeeva work on one core): below it, starting the threads costs more than
# they save
_PARALLEL_ENTRIES = 1 << 16
# OpenBLAS runs a gemm of at most this many multiply-adds (m n k) on one
# thread: SMP_THRESHOLD_MIN (65536) times GEMM_MULTITHREAD_THRESHOLD (4 by
# default), in OpenBLAS interface/gemm.c
_GEMM_ONE_THREAD = 1 << 18
# row blocks of a split product start at multiples of this many rows. OpenBLAS
# computes a product's rows in tiles, and a block that starts inside a tile
# can round some rows apart from the single product: with OpenBLAS 0.3.31 on
# an AVX-512 Xeon, blocks off a multiple of 12 rows did so at 276 columns
_ROW_TILE = 24


def engine_workers(dim):
    """Threads that ExtensionEngine.values may use on a grid of dim point
    axes: every CPU of the affinity mask in 1D, where the smoothed modes
    dominate, and one in 2D, where the time contractions do."""
    return _cpu_count() if dim == 1 else 1


def _window_table(table, live):
    """The windows of the live modes of one axis, from its basis table
    (center, half, k, omega): a list of (center, half, omegas), one per run
    of consecutive live modes that share a window (an interval has one, a
    union one per component), in mode order; empty when no mode is live."""
    c, h, _, om = (a[live] for a in table)
    cut = np.flatnonzero((np.diff(c) != 0) | (np.diff(h) != 0)) + 1
    return [(c[i], h[i], o) for i, o in zip([0, *cut], np.split(om, cut))] if c.size else []


def _axis_modes(x, s, windows):
    """The smoothed modes of one axis at the points x and nodes s, as the
    (value, d/dx) pair of (modes, points, nodes) arrays, from its window
    table (_window_table). One smoothed_sine_mode call per window, so the
    factors that depend on the point and the window alone are built once
    for all of its modes."""
    parts = [smoothed_sine_mode(x[None, :, None], s, om[:, None, None], c, h)
             for c, h, om in windows]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _mode_groups(C):
    """The rows of the coefficient tensor C (rows, m_1, ..., m_d) grouped by
    their live modes: yields (row indices, [live modes of each axis]), in
    order of first appearance. A mode is live in a row when some coefficient
    of the row that involves it is nonzero. The solve's blocks make an
    eigenvector's coefficients outside its block exact zeros, so on an axis
    whose modes share one window it keeps the modes of its parity alone:
    half of them, also on the half grids of the energy quadratures and the
    probes (see _half_rules). Mixed rows keep every mode they use."""
    live = [np.moveaxis(C != 0, i, -1).reshape(len(C), -1, m).any(axis=1)
            for i, m in enumerate(C.shape[1:], 1)]
    _, first, group = np.unique(np.hstack(live), axis=0, return_index=True, return_inverse=True)
    for j in np.argsort(first):
        g = np.flatnonzero(group.ravel() == j)
        yield g, [np.flatnonzero(a[g[0]]) for a in live]


def _live_chunks(weights):
    """Slices of the _S_CHUNK-node chunks of the subordination grid that carry
    weight: some node reaches _WEIGHT_FLOOR of its row's largest |weight| in
    some row of the (rows, nodes) weight table. Whole chunks only:
    a kept chunk is summed exactly as in a full pass, so the skipped terms,
    far below rounding, are all that changes."""
    a = np.abs(weights)
    live = np.any(a >= _WEIGHT_FLOOR * np.max(a, axis=1, keepdims=True), axis=0)
    return [slice(i0, i0 + _S_CHUNK) for i0 in range(0, live.size, _S_CHUNK)
            if live[i0 : i0 + _S_CHUNK].any()]


def _contract_spec(dim):
    """The einsum of a mode sum in dim axes: coefficients (rows, m_1, ...)
    against one (m_i, n_i, s) mode array per axis, to (rows, n_1, ..., s)."""
    m, p = "jk"[:dim], "ab"[:dim]
    return f"f{m}," + ",".join(f"{mi}{pi}s" for mi, pi in zip(m, p)) + f"->f{p}s"


@lru_cache(maxsize=64)
def _contract_path(shapes):
    """The greedy einsum path (what optimize=True finds) of a 2D mode sum
    over operands of these shapes, from the shapes alone. The shapes are
    fixed within a pass, so the path is searched once for all of its chunk
    terms, not once per term; it is the same path, so the same sums."""
    ops = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(_contract_spec(len(shapes) - 1), *ops, optimize=True)[0]


def _contract(C, factors):
    """Sum the coefficient tensor C (rows, m_1, ..., m_d) against per-axis
    mode arrays factors[i] of shape (m_i, n_i, s): returns (rows, n_1, ..., n_d, s).
    In 1D the one product C @ factor is made over the _point_blocks of its
    columns, which OpenBLAS runs on one thread: the products einsum makes,
    cut at whole points, which round alike. A 2D pass keeps one einsum,
    along the path that _contract_path finds once for its shapes."""
    if len(factors) == 1:
        (F,) = factors
        A, out = F.reshape(len(F), F.shape[1] * F.shape[2]), np.empty((len(C),) + F.shape[1:])
        for cols in _point_blocks(*F.shape[1:], C.shape):
            _mode_product(C, A[:, cols], out.reshape(len(C), -1)[:, cols])
        return out
    path = _contract_path((C.shape,) + tuple(f.shape for f in factors))
    return np.einsum(_contract_spec(len(factors)), C, *factors, optimize=path)


def _mode_product(a, b, out):
    """out = a @ b, the one BLAS product of a split mode sum."""
    np.matmul(a, b, out=out)


def _point_blocks(points, nodes, shape):
    """Column slices of a 1D mode sum, C (rows x modes of shape) against
    points x nodes columns: runs of whole points whose products OpenBLAS
    runs on one thread, within _GEMM_ONE_THREAD multiply-adds for a gemm
    and, for the gemv that numpy makes of one row, fewer than 2304 times
    GEMM_MULTITHREAD_THRESHOLD (m n < 9216, OpenBLAS interface/gemv.c).
    A run has one point at least, so a basis of 384 or more modes per
    parity makes one-row products beyond the bound. The runs depend on the
    shapes alone, never on the thread count."""
    bound = _GEMM_ONE_THREAD if shape[0] > 1 else 2304 * 4 - 1
    per = nodes * max(1, bound // max(1, shape[0] * shape[1] * nodes))  # 0 modes: a zero row
    return [slice(a, a + per) for a in range(0, points * nodes, per)]


def _row_blocks(rows, inner):
    """Slices of rows whose products with an inner-entry matrix (k x n =
    inner) stay within _GEMM_ONE_THREAD multiply-adds: near-equal runs of
    whole _ROW_TILE tiles, the last one holding the partial tile. Blocks
    that start on tile edges were measured to round every row as the single
    product does. No slice has one row unless rows == 1 (a one-row tail joins the
    block before it): numpy hands a one-row product to gemv, which rounds
    apart from gemm. So where the bound admits less than one tile, and at a
    merged tail, a block exceeds it."""
    tiles = -(-rows // _ROW_TILE)
    blocks = -(-tiles // max(1, _GEMM_ONE_THREAD // (inner * _ROW_TILE)))
    edges = [min(rows, _ROW_TILE * (tiles * i // blocks)) for i in range(blocks + 1)]
    if blocks > 1 and rows - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _gemm(a, b, out):
    """out = a @ b, the one BLAS product of the time contractions."""
    np.matmul(a, b, out=out)


def _time_contract(M, G, split):
    """Contract the trailing s axis of M with G (nt, ns): one matrix product
    over the rows of M reshaped to (-1, ns), or with split one per
    _row_blocks slice of them, so that OpenBLAS runs each on one thread."""
    A = M.reshape(-1, M.shape[-1])
    out = np.empty((A.shape[0], G.shape[0]))
    for rows in _row_blocks(A.shape[0], G.size) if split else [slice(None)]:
        _gemm(A[rows], G.T, out[rows])
    return out.reshape(M.shape[:-1] + (G.shape[0],))


def _axes(axes, dim):
    """The point axes of a tensor grid in R^dim as a list of dim 1D float
    arrays, a scalar taken as an axis of one point; ValidationError unless
    there are dim of them, each 1D with a point."""
    axes = [np.atleast_1d(np.asarray(a, dtype=float)) for a in axes]
    if len(axes) != dim:
        raise ValidationError(f"a grid in R^{dim} needs {dim} point axes, got {len(axes)}")
    for i, a in enumerate(axes, 1):
        if a.size == 0:
            raise ValidationError(f"point axis x{i} is empty")
        if a.ndim != 1:
            raise ValidationError(f"point axis x{i} must be 1D, got shape {a.shape}")
    return axes


def _require_positive_times(ts):
    """The one check on heights: at least one, each finite and > 0 (the
    extensions live on the open half-space t > 0)."""
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0 or not np.all((0.0 < ts) & (ts < np.inf)):
        raise ValidationError(f"heights t must be finite and > 0, got {ts!r}")


def _require_extendable(basis):
    """ValidationError unless basis is a sine basis; UnsupportedConfigurationError
    beyond d = 2, where _contract_spec and _TAIL_CONSTANTS stop."""
    if not isinstance(basis, SineBasis):
        raise ValidationError("harmonic extensions need a sine basis")
    if len(basis.tables) > 2:
        raise UnsupportedConfigurationError(
            f"harmonic extensions support d <= 2, got d = {len(basis.tables)}")


class ExtensionEngine:
    """Evaluates P_t applied to arbitrary coefficient vectors of a sine basis
    together with its gradient, batched over tensor grids of points and
    heights t > 0."""

    def __init__(self, basis):
        _require_extendable(basis)
        self.basis = basis
        self.s_nodes, self.s_weights = subordination_grid()
        # Faddeeva entries of every values call so far, [evaluated, skipped]:
        # counted in phase 2, so the same on any number of threads
        self.faddeeva_entries = np.zeros(2, dtype=np.int64)

    def _time_weights(self, ts):
        """Subordination weights at the heights ts, each > 0, as one
        (2 len(ts), nodes) table: the value weights g(t, s) w of each height,
        then the d/dt weights g w (1/t - t / (2 s))."""
        _require_positive_times(ts)
        t = np.asarray(ts, dtype=float)[:, None]
        gw = subordinator_density_half(t, self.s_nodes[None, :]) * self.s_weights
        return np.vstack([gw, gw * (1.0 / t - t / (2.0 * self.s_nodes))])

    def values(self, coeff_rows, axes, ts):
        """Extensions of several coefficient vectors and their gradients on a
        tensor grid of points, given as its d point axes (x1s, ..., xds)
        with at least one point each (ValidationError otherwise, _axes), and
        heights ts, each finite and > 0.

        Returns (n_rows, d + 2, len(x1s), ..., len(xds), len(ts)). The axis
        after the rows holds the value, d/dx1, ..., d/dxd and d/dt, all from
        the same mode arrays: the x-derivatives come with the smoothed
        modes, and d/dt is the same subordination sum taken against
        dg/dt = g (1/t - t / (2 s)). Boundary values at t = 0 are the
        eigenfunctions themselves (SpectralResult.eigenfunction). Only the
        chunks of subordination nodes that carry weight at these heights are
        evaluated (see _live_chunks); they depend on ts alone.

        The rows are grouped by their live modes (_mode_groups): each group
        runs the engine loop with only the modes whose coefficients are not
        all exact zeros, which for an eigenvector are the modes of its
        parity on each axis with one window. So a group's values differ
        from those of a pass over every mode and row by rounding alone: BLAS
        rounds a product with fewer rows or modes differently. Each group's
        live modes become a window table per axis (_window_table), built
        once per pass, which the smoothed modes and the Faddeeva tally read.
        A group with no live mode, a zero row, has an extension of exactly 0
        and skips the pass. A group of
        consecutive rows sums into its rows of the result directly. The
        engine evaluates every point it is given: callers that probe or
        integrate an even quantity on a mirror grid pass only its second
        half (_half_rules).

        Each group's loop (_pass) runs in two phases, chunk by chunk of
        nodes: the smoothed modes, on engine_workers threads when the pass
        is large enough to pay for them, then the time contractions in this
        thread in the serial order. The result is the same to the last bit
        on any number of threads.
        """
        rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        gw = self._time_weights(ts)
        chunks = _live_chunks(gw)
        points, tables = _axes(axes, len(self.basis.tables)), self.basis.tables
        C = rows.reshape((len(rows),) + tuple(t[0].size for t in tables))
        out = np.zeros((len(rows), len(points) + 2) + tuple(p.size for p in points) + (ts.size,))
        for g, sel in _mode_groups(C):
            windows = [_window_table(t, i) for t, i in zip(tables, sel)]
            if not all(windows):  # a zero row
                continue
            run = g[-1] - g[0] + 1 == g.size  # consecutive rows: a view of out
            part = out[g[0] : g[-1] + 1] if run else np.zeros((g.size,) + out.shape[1:])
            self._pass(part, C[np.ix_(g, *sel)], points, windows, chunks, gw)
            if not run:
                out[g] = part
        return out

    def _pass(self, out, C, points, windows, chunks, gw):
        """The engine loop, in any dimension: the chunks of nodes in batches
        whose rows x terms x points x nodes stay within _CHUNK_ENTRIES, with
        the time weights gw of _time_weights.

        Phase 1, _chunk_terms, is mapped over the chunks of a batch: on
        engine_workers threads, one chunk per job, when the pass pays for
        them, else inline with the builtin map. Phase 2, _add_chunk, sums
        each chunk into out in this thread and in the serial order, so every
        sum is the serial one. It waits for phase 1 of the whole batch, so
        that the sums run in that order while the jobs are free to run in
        any. In 1D its time contractions are row blocks that OpenBLAS keeps
        on one thread: a multithreaded gemm leaves its worker spinning for a
        while on a core that the Faddeeva jobs need. The blocking depends on
        the dimension alone, never on the thread count, so serial and
        threaded passes do the same arithmetic. So is the 1D mode sum of
        phase 1 (_contract), whose one-row products OpenBLAS would otherwise
        run on every BLAS thread from a 16-mode parity up. Whole chunks feed
        the threads: a job repeats the work that depends on the points alone,
        and runs of a few nodes made the 1D checks take up to twice the CPU
        time."""
        workers = engine_workers(len(points))
        # smoothed-mode entries: modes x points x nodes, summed over the axes
        entries = sum(m * p.size for m, p in zip(C.shape[1:], points)) * len(chunks) * _S_CHUNK
        threaded = workers > 1 and entries >= _PARALLEL_ENTRIES
        per_batch = max(1, _CHUNK_ENTRIES // (out[..., 0].size * _S_CHUNK))
        with ThreadPoolExecutor(workers) if threaded else nullcontext() as pool:
            phase1 = pool.map if threaded else map
            chunk_terms = partial(self._chunk_terms, C, points, windows)
            for i in range(0, len(chunks), per_batch):
                batch = chunks[i : i + per_batch]
                for sl, t in zip(batch, list(phase1(chunk_terms, batch))):
                    _add_chunk(out, t, gw, sl, len(points) == 1)
                    self.faddeeva_entries += _faddeeva_entries(points, windows, self.s_nodes[sl])

    def _chunk_terms(self, C, points, windows, sl):
        """Phase 1 for the chunk sl of nodes: the smoothed modes summed
        against C, a list of (rows, n_1, ..., n_d, nodes) terms: the value,
        then d/dx_i for each axis."""
        sc = self.s_nodes[None, None, sl]
        per_axis = [_axis_modes(p, sc, w) for p, w in zip(points, windows)]
        vals = [v for v, _ in per_axis]
        return [_contract(C, vals)] + [_contract(C, vals[:i] + [dx] + vals[i + 1 :])
                                       for i, (_, dx) in enumerate(per_axis)]


def _faddeeva_entries(points, windows, s):
    """The Faddeeva entries of the smoothed modes of one chunk of nodes s, as
    [evaluated, skipped]: per axis, window of its table and edge offset of
    smoothed_sine_mode, the window's modes times the nodes times the points
    of the run in reach of that edge (_reach, as _scaled_erf takes it), and
    times the points outside the run."""
    counts = np.zeros(2, dtype=np.int64)
    for x, axis_windows in zip(points, windows):
        for c, h, om in axis_windows:
            u = x - c
            for r in (h - u, -h - u):
                run = _reach(r, s)[1]
                near = 0 if run is None else r[run].size
                counts += om.size * s.size * np.array([near, r.size - near])
    return counts


def _add_chunk(out, terms, gw, sl, split):
    """Phase 2 for the chunk sl: contract each term over its nodes with the
    time weights gw (_time_weights) and add it to out. The value term makes
    the value plane against the value weights of the nt heights, and the
    d/dt plane, in a product of its own, against their d/dt weights; each
    d/dx_i term takes the value weights. So the value plane is made of the
    products of a value-only contraction, whatever the heights: one product
    against the stacked weights would turn a one-row, one-height product
    from numpy's dot into a gemv, which rounds apart. split is set in a 1D
    pass: each contraction is then made of row blocks that OpenBLAS runs on
    one thread (_time_contract), so no BLAS worker wakes to spin beside the
    Faddeeva jobs. A 2D pass keeps one product per contraction, which its
    BLAS threads speed up: row blocks made the 2D gap check slower."""
    nt = out.shape[-1]
    for i, term in enumerate(terms):
        out[:, i] += _time_contract(term, gw[:nt, sl], split)
    out[:, -1] += _time_contract(terms[0], gw[nt:, sl], split)


@dataclass(frozen=True, eq=False)
class HarmonicExtension:
    """The half-space extension u_n(x, t) of mode n (1-based) of a spectral
    result, or the ratio u_n / u_over of two of its extensions when over is
    set. Built by extend and extend_ratio, which check the modes."""

    result: SpectralResult
    n: int
    over: int | None = None

    @property
    def dim(self):
        return self.result.domain.dim

    def values(self, axes, ts):
        """The value plane [0] of values_and_grad."""
        return self.values_and_grad(axes, ts)[0]

    def values_and_grad(self, axes, ts):
        """Value and gradient stacked on the first axis, on the tensor grid of
        the d point axes and at heights ts > 0 (see ExtensionEngine.values)."""
        return _eval_fields((self,), axes, ts)[0]


def extend(result: SpectralResult, n: int) -> HarmonicExtension:
    """Harmonic extension of mode n (1-based) of a Cauchy-process result."""
    if result.alpha != 1.0:
        raise ValidationError("harmonic extensions apply to alpha = 1 results")
    _require_extendable(result.basis)
    result.check_mode(n)
    return HarmonicExtension(result, n)


def extend_ratio(result, n):
    """The bounded field u_n / u_1 whose energy gives the gap to lambda_1."""
    extend(result, n)  # checks alpha and n
    return HarmonicExtension(result, n, 1)


_PROBE_T_MAX = 20.0  # top height of the probe grids above D
_FIELD_N_X, _FIELD_N_T = 80, 32  # default field grid: points per x axis, heights


def default_field_grid(domain):
    """Default sampling grid (x axes, times): x covers D plus a 50% margin,
    closed under x -> -x on an axis centred at 0 (mirror_linspace); heights
    are a geometric ladder up to _PROBE_T_MAX.  The
    ladder starts at 0.02 * inradius in 1d and 0.2 * inradius in 2d: below
    that the truncated sine basis leaves a boundary-layer residual of order
    t * |(A - lambda_1) phi_1| in the extension, and the coarser per-axis
    resolution of the tensor basis makes the layer thicker in 2d.
    """
    t_min = (0.02 if domain.dim == 1 else 0.2) * domain.summarize().inradius
    ts = np.geomspace(t_min, _PROBE_T_MAX, _FIELD_N_T)
    axes = [
        mirror_linspace(lo - 0.25 * (hi - lo), hi + 0.25 * (hi - lo), _FIELD_N_X)
        for lo, hi in domain.bounding_box()
    ]
    return axes, ts


# ---------------- mirror symmetry: half grids for even quantities ----------------


def _mirror_parity(result, n):
    """Per axis, the parity of mode n of a result under x_i -> -x_i: +1 or
    -1 where its coefficients are exactly even or odd under the mirror, else
    0. It is 0 also on an axis whose windows are not exact mirrors about 0,
    centre for centre to the last bit: one window centred at 0.0, or union
    component j the mirror of component m - 1 - j. A domain symmetric only
    to within geometry's tolerance has no such axis. The mirror takes mode k
    of a window to mode_parity(k) times mode k of the mirror window
    (mirror_index), the pairing of SineBasis.reflection. A result with an
    extension has a sine basis: extensions need alpha = 1, and a disk
    result exists only at alpha = 2."""
    par = np.zeros(result.domain.dim, dtype=int)
    coeffs = result.coefficients[n - 1].reshape([t[0].size for t in result.basis.tables])
    for i, (c, h, k, _) in enumerate(result.basis.tables):
        image = mirror_index(k)
        if np.array_equal(c[image], -c) and np.array_equal(h[image], h):
            C = np.moveaxis(coeffs, i, -1)
            R = C[..., image] * mode_parity(k)
            par[i] = 1 if np.array_equal(R, C) else -1 if np.array_equal(R, -C) else 0
    return par


def _half_rules(rules, fields):
    """The rules (x, w) of the axes, each cut to its second half x[n // 2:]
    where the product of the fields is exactly even and the rule is the
    reversed mirror of itself to the last bit (x == -x[::-1], w == w[::-1]),
    as the energy and probe grids of an axis symmetric about 0 are
    (union_linspaces). The product is even where the parities
    (_mirror_parity) of the modes of its extensions and ratios multiply to
    +1; a ConstantField is even, and any other field has no known parity.
    An even quantity takes one value at point j and at its mirror
    n - 1 - j: its extrema over the kept points are those over all of them,
    and its integral doubles the kept weights, all but that of the centre
    point, its own mirror when n is odd. w is None on a probe grid."""
    if not all(isinstance(f, (HarmonicExtension, ConstantField)) for f in fields):
        return list(rules)
    modes = [(f.result, n) for f in fields if isinstance(f, HarmonicExtension)
             for n in (f.n, f.over) if n is not None]
    even = np.prod([_mirror_parity(r, n) for r, n in modes] + [[1] * len(rules)], axis=0) == 1
    half = []
    for (x, w), e in zip(rules, even):
        n = x.size
        if e and np.array_equal(x, -x[::-1]) and (w is None or np.array_equal(w, w[::-1])):
            x = x[n // 2 :]
            w = None if w is None else np.where(np.arange(x.size) < n % 2, 1, 2) * w[n // 2 :]
        half.append((x, w))
    return half


# ---------------- pointwise structural checks ----------------


def _require_step(h):
    if not 0 < h < np.inf:
        raise ValidationError(f"the step h must be finite and > 0, got {h!r}")


def check_harmonic(field, x, t, h=1e-3):
    """Residual of the (d+1)-dimensional Laplacian of the field u at (x, t),
    h-stencil, normalized by |u(x, t)| + 1, at one point x of R^d (anything
    that reshapes to (d,), geometry.as_points). Any field with dim and
    values on d point axes (a HarmonicExtension, for one) will do."""
    _require_step(h)
    if not t - h > 0:
        raise ValidationError("stencil must stay inside t > 0")
    stencil = np.array([-h, 0.0, h])
    v = field.values([xi + stencil for xi in as_points(np.ravel(x), field.dim)], t + stencil)
    # the 3^(d+1) grid around (x, t): sum over axes of the second differences
    center = v[(1,) * v.ndim]
    lap = sum(
        np.moveaxis(v, i, 0)[(slice(0, 3, 2),) + (1,) * (v.ndim - 1)].sum() - 2 * center
        for i in range(v.ndim)
    ) / h**2
    return abs(lap) / (abs(center) + 1.0)


def check_boundary_derivative(result, n, x, h=1e-4):
    """One-sided residual |(u(x, h) - phi(x)) / h + lambda_n phi(x)| at one
    point x in D, anything that reshapes to (d,) (geometry.as_points). For x
    outside the closure of D returns |u(x, h)| instead (the boundary value
    there is zero)."""
    _require_step(h)
    ext = extend(result, n)
    x = as_points(np.ravel(x), result.domain.dim)
    u_h = ext.values(x[:, None], [h]).item()
    if not result.domain.contains(x):
        return abs(u_h)
    phi_v = result.eigenfunction(n)(x)
    return abs((u_h - phi_v) / h + result.eigenvalues[n - 1] * phi_v)


def ground_state_domination_check(result, xs=None, ts=None):
    """min over the grid, at heights t > 0, of u_1(x, t) - exp(-lambda_1 t) phi_1(x).

    The free evolution of the nonnegative ground state dominates its killed
    evolution, so the margin should be >= -1e-8 wherever the discretization
    error of the eigenpair is below the true slack. Heights must be > 0: at
    t = 0 the two sides agree exactly (u_1 = phi_1, also outside D), and
    the margin would always read 0. On the default field
    grid the bound holds; inside the thin layer t < ~0.02 * inradius near the
    boundary of D the Galerkin residual (order 1e-4 for a 512-mode sine
    basis) swamps the slack, which is why the default grid starts above it.
    On an axis where u_1 is exactly even the margin is too, so only the
    second half of a mirror grid is evaluated (_half_rules). xs and ts
    replace the d point axes and the heights of default_field_grid.
    """
    axes, gt = default_field_grid(result.domain)
    axes = axes if xs is None else _axes(xs, result.domain.dim)
    ts = np.atleast_1d(np.asarray(gt if ts is None else ts, dtype=float))
    u1 = extend(result, 1)
    axes = [x for x, _ in _half_rules([(x, None) for x in axes], (u1,))]  # even where u_1 is
    u = u1.values(axes, ts)
    pts = tensor_points(axes)
    phi1 = np.where(result.domain.contains(pts), result.eigenfunction(1)(pts), 0.0)
    lower = np.exp(-result.lambda1 * ts) * phi1.reshape(u.shape[:-1])[..., None]
    return float(np.min(u - lower))


# ---------------- energy quadrature ----------------


@dataclass
class QResult:
    value: float
    tail_bound: float
    truncation: Truncation
    n_x: int
    n_t: int
    diagnostics: dict = field(default_factory=dict)


def _x_axis_rule(domain, x_max, axis, n_inner, nodes_per_panel):
    """The rule on (-x_max, x_max) of one axis: n_inner - 1 equal panels over
    1.6 times the domain's half-extent about 0 (or up to x_max, if that is
    nearer), then panels growing by 1.35 out to x_max. Exactly closed under
    x -> -x (see mirror_linspace)."""
    lo, hi = domain.bounding_box()[axis]
    b = min(1.6 * max(abs(lo), abs(hi)), x_max)
    inner = mirror_linspace(-b, b, n_inner)
    w = 0.4 * b
    outer_left = [-b]
    while outer_left[-1] - w > -x_max:
        outer_left.append(outer_left[-1] - w)
        w *= 1.35
    edges = sorted(set([-x_max] + outer_left + list(inner) + [-v for v in outer_left] + [x_max]))
    return panel_gauss(np.array(edges), nodes_per_panel)


def _energy_grid(domain, trunc):
    """Per-axis x rules and the t rule of the truncated box: ([x rules], t rule).

    The rules are coarser in 2d, where the field arrays grow with the square
    of the per-axis node count."""
    check_truncation(trunc, domain)
    n_inner, x_nodes, t_nodes, t_per_decade = (49, 6, 6, 4) if domain.dim == 1 else (17, 4, 4, 3)
    x_rules = [_x_axis_rule(domain, trunc.x_max, i, n_inner, x_nodes) for i in range(domain.dim)]
    return x_rules, log_panels(trunc.eps, trunc.t_max, t_per_decade, t_nodes)


def _integrate(f, weights):
    """Tensor quadrature: contract each leading axis of f with its weights."""
    for w in weights:
        f = np.tensordot(w, f, axes=(0, 0))
    return float(f)


class ConstantField:
    """Trivial field sampler u(x, t) = value, for degenerate test inputs."""

    def __init__(self, dim, value=1.0):
        self.dim = dim
        self.value = float(value)

    def values(self, axes, ts):
        """A read-only view, with zero strides over the tensor grid of the dim
        point axes and the heights ts > 0."""
        _require_positive_times(ts)
        shape = tuple(a.size for a in _axes(axes, self.dim)) + (np.atleast_1d(ts).size,)
        return np.broadcast_to(self.value, shape)

    def values_and_grad(self, axes, ts):
        v = self.values(axes, ts)
        stack = np.array([self.value] + [0.0] * (self.dim + 1))
        return np.broadcast_to(stack.reshape((-1,) + (1,) * v.ndim), stack.shape + v.shape)


def _eval_fields(fields, axes, ts, tally=None):
    """Values and gradients (as values_and_grad) of several fields on the
    tensor grid of axes and heights ts > 0.

    This is the one place that builds an ExtensionEngine. Extensions are
    batched by result: the modes of one result, in order of first appearance
    (a ratio's numerator before its denominator), go through one engine pass.
    Other fields evaluate themselves; a field passed twice is evaluated once.
    The engines' Faddeeva entries, [evaluated, skipped], are added to the
    integer array tally when one is given."""
    batches = {}  # id(result) -> (result, [modes])
    for f in fields:
        if isinstance(f, HarmonicExtension):
            modes = batches.setdefault(id(f.result), (f.result, []))[1]
            modes.extend(n for n in (f.n, f.over) if n is not None and n not in modes)
    rows = {}  # (id(result), mode) -> its value and gradient
    for key, (result, modes) in batches.items():
        engine = ExtensionEngine(result.basis)
        v = engine.values(np.vstack([result.coefficients[n - 1] for n in modes]), axes, ts)
        if tally is not None:
            tally += engine.faddeeva_entries
        rows.update(((key, n), vn) for n, vn in zip(modes, v))

    def evaluate(f):
        if not isinstance(f, HarmonicExtension):
            return f.values_and_grad(axes, ts)
        u = rows[id(f.result), f.n]
        if f.over is None:
            return u
        d = rows[id(f.result), f.over]
        w = np.empty_like(u)  # the quotient rule, value first as in values_and_grad
        np.divide(u[0], d[0], out=w[0])
        np.subtract(u[1:], np.multiply(w[0], d[1:], out=w[1:]), out=w[1:])
        w[1:] /= d[0]
        return w

    done = {key: evaluate(f) for key, f in {id(f): f for f in fields}.items()}
    return [done[id(f)] for f in fields]


def q_functional(u, v, u1, trunc=None):
    """Energy pairing of two fields with the squared ground extension weight:

        Q(u, v) = integral over [-R, R]^d x [eps, T] of grad u . grad v * u1^2,

    by tensor Gauss quadrature of the analytic gradients (values_and_grad);
    u1 must be an extension, not a ratio; its result's domain sets the x rules.
    For u = v = u_n/u_1 (see extend_ratio) this equals the eigenvalue gap
    lambda_n - lambda_1. The reported tail_bound integrates a fitted envelope
    K (t^2 + |x|^2)^(-(d+1)) over the omitted region. On an axis where the
    integrand is exactly even the rule is cut to its second half, with
    doubled weights (_half_rules); n_x counts the full rule.
    diagnostics holds "constant_field", the pairing of ConstantField with
    itself against the same weight on the same grid (its gradient is
    identically zero, so this is zero by construction), "halved_axes", per
    axis whether the rule was cut, "grid_shape", the (x..., t) shape of
    the grid evaluated, and "faddeeva_entries", those that the engine
    evaluated and those that it skipped (_faddeeva_counts).
    """
    if not isinstance(u1, HarmonicExtension) or u1.over is not None:
        raise ValidationError("u1 must be a harmonic extension to set the quadrature grid")
    trunc = _truncation(trunc, u1.dim)
    x_rules, (tq, tw) = _energy_grid(u1.result.domain, trunc)
    rules = _half_rules(x_rules, (u, v, u1, u1))
    axes = [x for x, _ in rules]
    weights = [w for _, w in rules] + [tw]
    tally = np.zeros(2, dtype=np.int64)
    gu, gv, g1, gc = _eval_fields((u, v, u1, ConstantField(u1.dim)), axes, tq, tally=tally)
    weight = g1[0] ** 2
    integrand = _energy(gu, gv, weight)
    return QResult(
        _integrate(integrand, weights),
        _tail_bound(axes, tq, integrand, trunc),
        trunc,
        int(np.prod([x.size for x, _ in x_rules])),
        tq.size,
        {"constant_field": _integrate(_energy(gc, gc, weight), weights),
         "halved_axes": [a.size < x.size for a, (x, _) in zip(axes, x_rules)],
         "grid_shape": integrand.shape,
         "faddeeva_entries": _faddeeva_counts(tally)},
    )


def _faddeeva_counts(tally):
    """An engine tally [evaluated, skipped] as the dict that the checks report."""
    return {"evaluated": int(tally[0]), "skipped": int(tally[1])}


def _energy(gu, gv, weight):
    """The integrand grad u . grad v * weight of two values_and_grad stacks:
    one einsum over the gradient terms, times weight in place."""
    f = np.einsum("i...,i...->...", gu[1:], gv[1:])
    f *= weight
    return f


# envelope integrals outside the box, per dimension: (t-side, x-side) constants
_TAIL_CONSTANTS = {1: (np.pi / 4, np.pi / 4), 2: (np.pi / 6, np.pi**2 / 8)}


def _tail_bound(axes, tq, integrand, trunc):
    # calibrate integrand <= K (t^2 + |x|^2)^(-(d+1)) on the outer shell, then
    # integrate that envelope outside the box
    d = len(axes)
    *X, T = np.meshgrid(*axes, tq, indexing="ij", sparse=True)
    R2 = sum(x**2 for x in X)
    shell = (np.sqrt(R2) > 0.8 * trunc.x_max) | (T > 0.8 * trunc.t_max)
    if not np.any(shell):
        return float("inf")
    K = float(np.max(np.abs(integrand * (T**2 + R2) ** (d + 1)), where=shell, initial=0.0))
    c_t, c_x = _TAIL_CONSTANTS[d]
    return K * (c_t / trunc.t_max ** (d + 1) + c_x / trunc.x_max ** (d + 1))


def _star_mode(result):
    """The star mode of a result; ValidationError when it has none to report."""
    if result.star_index is None:
        result.lambda_star  # raises ValidationError, naming the cause
    return result.star_index


def gap_identity_check(result, n=None, trunc=None):
    """Compare the energy Q(u_n/u_1, u_n/u_1) with lambda_n - lambda_1.

    Returns {"lhs": eigenvalue gap, "rhs": energy, "relative_error", ...,
    "constant_field_Q": the constant field's energy on the same pass,
    "faddeeva_entries": the engine's, as in QResult.diagnostics};
    n defaults to the star mode.
    """
    n = _star_mode(result) if n is None else n
    if n == 1:
        raise ValidationError("mode 1 has no gap to lambda_1")
    w = extend_ratio(result, n)
    gap = float(result.eigenvalues[n - 1] - result.lambda1)
    q = q_functional(w, w, extend(result, 1), trunc=trunc)
    return {
        "mode": n,
        "lhs": gap,
        "rhs": q.value,
        "relative_error": abs(q.value - gap) / gap,
        "tail_bound": q.tail_bound,
        "constant_field_Q": q.diagnostics["constant_field"],
        "faddeeva_entries": q.diagnostics["faddeeva_entries"],
    }


def d01_lower_bound_check(result, trunc=None):
    """Evaluate the explicit lower-bound integral for the gap:

        integral over D x (0, T] of |grad (u*/u_1)|^2 exp(-2 lambda_1 t) phi_1^2,

    which never exceeds lambda_* - lambda_1 (the weight is dominated by u_1^2
    and the region is a subset of the half-space). Also reports the minimum of
    u_1^2 - exp(-2 lambda_1 t) phi_1^2 over the grid, which must stay above
    the Galerkin floor (see ground_state_domination_check). Both integrand
    and margin are even on an axis where u*/u_1 and u_1 are even or odd, and
    there the rule is cut to its second half (_half_rules). "faddeeva_entries"
    counts the engine's, as in QResult.diagnostics.
    """
    n = _star_mode(result)
    trunc = _truncation(trunc, result.domain.dim)
    lam1 = result.lambda1
    tq, tw = log_panels(1e-6, trunc.t_max, panels_per_decade=3, nodes_per_panel=6)
    # per interval component: 16 five-node panels in 1d, 10 four-node in 2d
    w, u1 = extend_ratio(result, n), extend(result, 1)
    x_rules = axis_rules(result.domain, *((16, 5) if result.domain.dim == 1 else (10, 4)))
    x_rules = _half_rules(x_rules, (w, w, u1, u1))
    axes = [x for x, _ in x_rules]
    tally = np.zeros(2, dtype=np.int64)
    gw, g1 = _eval_fields((w, u1), axes, tq, tally=tally)
    phi1 = result.eigenfunction(1)(tensor_points(axes)).reshape(g1.shape[1:-1])
    weight = np.exp(-2 * lam1 * tq) * phi1[..., None] ** 2
    value = _integrate(_energy(gw, gw, weight), [xw for _, xw in x_rules] + [tw])
    gap = float(result.lambda_star - lam1)
    return {
        "mode": n,
        "simplified_integral": value,
        "gap": gap,
        "weight_slack": float(np.min(g1[0] ** 2 - weight)),
        "pass": bool(value <= gap + 1e-3),
        "faddeeva_entries": _faddeeva_counts(tally),
    }
