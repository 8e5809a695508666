"""Variational eigensolver for the fractional Dirichlet form on bounded domains.

The quadratic form of the symmetric alpha-stable process killed outside D is

    E(u, u) = (2 pi)^(-d) * integral over R^d of |xi|^alpha |Fu(xi)|^2 dxi

(F the non-unitary Fourier transform). Interval unions, rectangles and boxes
in R^3 are one domain kind, products of interval unions (Domain.product), and
the solver projects this form onto one basis for all of them: products of the
Dirichlet-Laplacian sine modes of each axis's components, whose transforms
have closed forms. An axis with more than one interval is supported in d = 1
only: _sine_basis refuses it in d >= 2 (UnsupportedConfigurationError). The
form of one axis is evaluated by panel Gauss-Legendre quadrature in xi with an
analytic power-law tail beyond the truncation point, in real arithmetic: on
one interval the transforms of odd modes are real and those of even modes
imaginary, so the form splits into same-parity blocks (pairs of different
parity are exactly zero), each one real Gram product of amplitudes that take
one trig value per node and one rational factor per (mode, node), in a panel
coordinate where every mode frequency is an even integer
(_parity_amplitudes, which builds each parity's rows contiguously). A union
adds, per pair of components, the same Gram products weighted by the cos of
the phase between their centres on same-parity pairs and by its sin on the
others. A product of d intervals (a rectangle at d = 2, a box at d = 3)
needs only 1D pieces: by subordination,

    |xi|^alpha = c_alpha * integral_0^inf (1 - e^(-s |xi|^2)) s^(-1-alpha/2) ds,

c_alpha = (alpha/2) / Gamma(1 - alpha/2), and with d_i = 1 - e^(-s xi_i^2),
1 - e^(-s |xi|^2) = 1 - prod_i (1 - d_i) = sum over nonempty axis sets S of
(-1)^(|S|+1) prod_(i in S) d_i. So in the orthonormal basis the form is a
sum over those sets, each term with identities on the other axes: the axis
form A_i for S = {i}, and (-1)^(|S|+1) c_alpha * integral s^(-1-alpha/2)
(x)_(i in S) D_i(s) ds for two or more axes, with D_i(s)_jk = (1/pi)
integral_0^inf d_i G_j G_k dxi_i. On a rectangle that is A1 (x) I + I (x) A2
minus one cross term. Where s xi^2 >= _X_SAT, d_i rounds to exactly 1, so
_subordination_grams sums those entries once per block of xi without expm1;
the Grams and axis forms are built once per distinct axis table. For
alpha = 2 the sine basis diagonalizes the form exactly: each axis form is
its diagonal omega^2, with no xi quadrature, and the cross terms carry the
weight c_alpha = 0. Disks are supported at alpha = 2 only, through the
classical Bessel modes.

Rayleigh-Ritz gives one-sided (from above) approximations, nonincreasing in
the basis size because the sine bases are nested. solve_spectrum runs one
eigh per exact block of the form, on every domain: the sign-eigenspaces of
the x1 reflection (the identity where D is not x1-symmetric), split by the
parity of the mode of every later axis. So the symmetry labels are exact by
construction, and each coefficient vector is exactly zero off its block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._quad import log_panels
from .errors import (NumericalBudgetError, UnsupportedConfigurationError, ValidationError,
                     require_alpha, require_count)
from .geometry import Domain, as_points

# relative spread of a cluster of cross-block ties; used only to order it antisymmetric first
_DEGENERACY_TOL = 1e-9
# entries per xi-chunk of the assembly temporaries (2^21 doubles = 16 MB)
_CHUNK_ENTRIES = 1 << 21


# ---------------- basis ----------------


@dataclass(frozen=True, eq=False)
class SineBasis:
    """Orthonormal Dirichlet basis of a product of interval unions:
    products of one sine mode per axis of Domain.axis_components(), indexed
    row-major over the axes, x1 slowest (j * n2 + m on a rectangle).

    counts holds the modes per interval component of each axis, the request
    that rebuilds the basis. tables holds one axis table per axis: four
    column arrays (center, half_length, k, omega) with one entry per mode of
    that axis, the modes of each interval component consecutive.
    """

    domain: Domain
    size: int
    counts: tuple
    tables: tuple

    def form(self, alpha):
        """The form matrix at alpha (_assemble_sine)."""
        return _assemble_sine(self, alpha)

    def reflection(self):
        """u(x) -> u(-x1, x2...) on the coefficients of an x1-symmetric
        domain's basis, a signed permutation: basis function i goes to
        sign[i] times basis function image[i]; returns (image, sign). On the
        x1 axis mode k goes to mode_parity(k) times mode k of the mirror
        component (mirror_index); other axes stay."""
        k = self.tables[0][2]
        n = self.size // k.size  # basis functions per x1 mode
        return (mirror_index(k)[:, None] * n + np.arange(n)).ravel(), np.repeat(mode_parity(k), n)

    def labels(self):
        """One label per basis function, row-major: its mode parities on the axes after x1."""
        label = reduce(lambda p, t: np.add.outer(2 * p, mode_parity(t[2])).ravel(),
                       self.tables[1:], np.zeros(1))
        return np.tile(label, self.size // label.size)

    def probe_point(self):
        """The point, shape (d,), at a fixed fraction of the last component of
        each axis: 0.618 on the last axis, 0.809 on every other."""
        comps = self.domain.axis_components()
        fracs = (0.809,) * (len(comps) - 1) + (0.618,)
        return np.array([a + f * (b - a) for f, (*_, (a, b)) in zip(fracs, comps)])

    def evaluate(self, C, x):
        """sum_p C[..., p] * basis function p at the points x, shape (..., d)
        (evaluate_basis_sum)."""
        d = len(self.tables)
        # per axis: the sine factors of its modes, zero outside their component
        factors = []
        for (c, h, _, om), u in zip(self.tables, np.moveaxis(x, -1, 0)):
            local = u.reshape(-1, 1) - c
            inside = np.abs(local) < h
            factors.append(np.where(inside, np.sin(om * (local + h)) / np.sqrt(h), 0.0))
        axes = "jklm"[:d]
        spec = ",".join(f"p{a}" for a in axes) + f",...{axes}->...p"
        Ct = C.reshape(C.shape[:-1] + tuple(t[0].size for t in self.tables))
        return np.einsum(spec, *factors, Ct, optimize=True).reshape(C.shape[:-1] + x.shape[:-1])


@dataclass(frozen=True, eq=False)
class DiskBasis:
    """Orthonormal Dirichlet basis of a disk, alpha = 2 only: the classical
    Bessel modes, the Laplacian eigenfunctions. counts is the number of
    modes requested; modes holds the columns (m, k, zero, "cos"/"sin")."""

    domain: Domain
    size: int
    counts: int
    modes: tuple

    def form(self, alpha):
        """The diagonal (zero / r)^2 at alpha = 2."""
        if alpha != 2:
            raise UnsupportedConfigurationError("disk domains are supported at alpha = 2 only")
        return np.diag((self.modes[2] / self.domain.params[1]) ** 2)

    def reflection(self):
        """(image, sign) as in SineBasis.reflection: x1 -> -x1 is theta -> pi - theta,
        so cos(m th) -> (-1)^m cos(m th) and sin(m th) -> (-1)^(m+1) sin(m th)."""
        m, _, _, ang = self.modes
        return np.arange(self.size), mode_parity(np.where(ang == "cos", m + 1, m))

    def labels(self):
        """No parity label: every basis function has label 0."""
        return np.zeros(self.size)

    def probe_point(self):
        """A fixed point of the disk, off its centre and its axes."""
        (cx, cy), r = self.domain.params
        return np.array([cx + 0.53 * r, cy + 0.31 * r])

    def evaluate(self, C, x):
        """sum_p C[..., p] * basis function p at the points x (evaluate_basis_sum)."""
        from scipy.special import jv

        (cx, cy), r = self.domain.params
        pts = x.reshape(-1, 2)
        rho = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        th = np.arctan2(pts[:, 1] - cy, pts[:, 0] - cx)
        m, _, z, ang = self.modes
        radial = np.where((rho < r)[:, None], jv(m, np.outer(rho, z) / r), 0.0)
        angular = np.where(ang == "cos", np.cos(np.outer(th, m)), np.sin(np.outer(th, m)))
        # L2 norm of J_m(z rho / r) times the angular factor over the disk
        norm = np.sqrt(np.where(m == 0, 2 * np.pi, np.pi) * r**2 * jv(m + 1, z) ** 2 / 2)
        return (C @ (radial * angular / norm).T).reshape(C.shape[:-1] + x.shape[:-1])


def mode_parity(k):
    """Parity of sine mode k about its window's centre: +1 (even) for odd k, -1 for even k."""
    return (-1.0) ** (np.asarray(k) + 1)


def mirror_index(k):
    """Index of the mirror image under x -> -x of each mode of an axis table
    with mode column k: mode k of component i of m goes to mode k of component
    m - 1 - i, the component that mirrors it on a symmetric axis
    (Domain._symmetric_x1)."""
    n = k.max()  # modes per component, each component's rows consecutive
    return (k.size // n - 1 - np.arange(k.size) // n) * n + k - 1


def spectral_basis(domain, n_basis):
    """The basis of a domain: Bessel modes on a disk (n_basis modes), sine
    products on a product of interval unions (_sine_basis)."""
    return (_disk_basis if domain.kind == "disk" else _sine_basis)(domain, n_basis)


def _sine_basis(domain, n_basis):
    """Sine basis with n_basis modes per interval component: one int for
    every axis, or one int per axis. A union axis needs d = 1: in d >= 2 the
    cross terms (_subordination_grams) and the parity blocks (labels) hold
    for one interval per axis alone."""
    comps = domain.axis_components()
    if len(comps) > 1 and max(map(len, comps)) > 1:
        raise UnsupportedConfigurationError(
            f"an axis with more than one interval needs d = 1, got components per axis "
            f"{[len(ivs) for ivs in comps]}")
    counts = (n_basis,) * len(comps) if np.isscalar(n_basis) else tuple(n_basis)
    if len(counts) != len(comps):
        raise ValidationError(f"need one mode count per axis ({len(comps)})")
    for n in counts:
        require_count(n, "n_basis (modes per interval component)")
    counts = tuple(map(int, counts))
    tables = tuple(_axis_table(ivs, n) for ivs, n in zip(comps, counts))
    return SineBasis(domain, int(np.prod([t[0].size for t in tables])), counts, tables)


def _axis_table(intervals, n):
    """Axis table (centers, halves, k, omegas) of n sine modes per interval."""
    a, b = np.array(intervals).T
    c = np.repeat(0.5 * (a + b), n)
    h = np.repeat(0.5 * (b - a), n)
    k = np.tile(np.arange(1, n + 1), len(intervals))
    return c, h, k, k * np.pi / (2 * h)


def _disk_basis(domain, n_modes):
    from scipy.special import jn_zeros

    require_count(n_modes, "n_basis (disk modes)")
    # lowest zeros j(m, k) of J_m, each with the angular factors cos and sin
    kmax = int(np.sqrt(n_modes)) + 5
    cand = sorted(
        (z, m, k)
        for m in range(0, 2 * int(np.sqrt(n_modes)) + 8)
        for k, z in enumerate(jn_zeros(m, kmax), start=1)
    )
    modes = [(m, k, float(z), ang) for z, m, k in cand for ang in ("cos", "sin")[: 1 + (m > 0)]]
    columns = tuple(np.array(col) for col in zip(*modes[:n_modes]))
    return DiskBasis(domain, columns[0].size, n_modes, columns)


def basis_mode_transform(table, xi):
    """Fourier transforms of the modes of an axis table at frequencies ``xi``.

    Returns an array (modes, len(xi)), row p = integral of mode p times
    exp(-i xi x). As omega h = k pi / 2, mode k on the component
    (c - h, c + h) has the transform

        sqrt(h) s_k (sinc_- + sinc_+)         for odd k,
        -i sqrt(h) s_k (sinc_- - sinc_+)      for even k,

    times exp(-i xi c), with sinc_-+ = sinc((omega -+ xi) h / pi) and
    s_k = (-1)^floor(k/2). The sincs of the differences keep it stable at the
    removable singularities xi = +-omega. The form assembly does not call it:
    it is the independent sinc reference for _parity_amplitudes.
    """
    xi = np.asarray(xi, dtype=float)
    c, h, k, om = (col[:, None] for col in table)
    odd = k % 2 == 1
    g = np.sinc((om - xi) * h / np.pi)
    g += np.where(odd, 1.0, -1.0) * np.sinc((om + xi) * h / np.pi)
    g *= np.sqrt(h) * np.where(k // 2 % 2 == 0, 1.0, -1.0)
    out = g * np.where(odd, 1.0, -1j)
    for cc in np.unique(c[c != 0]):  # one phase per off-centre component
        out[c[:, 0] == cc] *= np.exp(-1j * xi * cc)
    return out


# ---------------- xi-space quadrature ----------------


_GL_NODES = 10  # Gauss-Legendre nodes per xi panel
_TAIL_FACTOR = 8.0  # xi cut-off / largest mode frequency of the axis
# cross terms of two or more axes: log panels in s on [_S_MIN, _S_MAX];
# beyond _S_MAX, each product of the D_i(s) is taken as I
_S_MIN, _S_MAX, _S_PANELS_PER_DECADE, _S_NODES = 1e-10, 1e10, 2, 10
# _subordination_grams: -expm1(-x) rounds to exactly 1.0 for x >= 37.43, so
# s xi^2 >= _X_SAT is saturated; xi panels per saturation block
_X_SAT, _SAT_PANELS = 40.0, 32


def _axis_quadrature(h, n_modes):
    """GL panel grid on [0, Xi] for an axis with half-length h and n_modes modes.

    The panels have width pi / (4 h), so in the panel coordinate
    u = xi / (pi / (4 h)) they are the unit intervals [p, p + 1] and the mode
    frequencies omega_k are the even integers 2k, panel edges that no node
    reaches. Returns the nodes in u (built as p + 1/2 + x_GL / 2, for
    _parity_amplitudes), the same nodes in xi, their weights in xi, and Xi.
    """
    panel_w = np.pi / (4 * h)
    npan = int(np.ceil(_TAIL_FACTOR * 2 * n_modes))  # Xi = _TAIL_FACTOR * omega_max
    xg, wg = leggauss(_GL_NODES)
    u = (np.arange(npan)[:, None] + 0.5 + 0.5 * xg).ravel()
    wts = np.tile(0.5 * panel_w * wg, npan)
    return u, u * panel_w, wts, npan * panel_w


def _tail_integrals(om, kk, h, alpha, xi_max):
    """Analytic tail of (1/pi) * integral_{Xi}^inf xi^alpha E_jk(xi) dxi for
    same-interval sine pairs, using the large-xi expansion

    E_jk ~ (2/h) om_j om_k (1 - (-1)^k cos(2 h xi)) (xi^-4 + (om_j^2+om_k^2) xi^-6).
    """
    J, K = np.meshgrid(om, om, indexing="ij")
    parity = (kk[:, None] - kk[None, :]) % 2 == 0
    sgn_k = np.where(kk % 2 == 0, 1.0, -1.0)

    def power_tail(beta):
        return xi_max ** (beta + 1) / (-(beta + 1))

    def cos_tail(beta):
        # integral_{Xi}^inf xi^beta cos(2 h xi) dxi, two integrations by parts
        s, c = np.sin(2 * h * xi_max), np.cos(2 * h * xi_max)
        return -(xi_max**beta) * s / (2 * h) - beta / (2 * h) * (
            xi_max ** (beta - 1) * c / (2 * h)
        )

    t1, t2 = power_tail(alpha - 4), power_tail(alpha - 6)
    c1, c2 = cos_tail(alpha - 4), cos_tail(alpha - 6)
    tail = (2 * J * K / (np.pi * h)) * (
        t1 + (J**2 + K**2) * t2 - sgn_k[None, :] * (c1 + (J**2 + K**2) * c2)
    )
    return np.where(parity, tail, 0.0)


def assemble_form_matrix(domain, alpha, n_basis):
    """Form matrix of the alpha-stable Dirichlet form in the chosen basis.

    Parameters
    ----------
    domain : Domain
    alpha : float in (0, 2]
    n_basis : int or tuple of int
        Modes per interval component, for every axis or one count per axis.

    Returns
    -------
    A, basis : (ndarray, SineBasis or DiskBasis)
    """
    require_alpha(alpha)
    basis = spectral_basis(domain, n_basis)
    return basis.form(alpha), basis


def _assemble_sine(basis, alpha):
    """The form (module docstring) as a sum of row-major Kronecker products:
    each axis form with identities on the other axes, then per set S of two or
    more axes (-1)^(|S|+1) c_alpha integral s^(-1-alpha/2) (x)_(i in S) D_i(s) ds
    with identities elsewhere, and that set's diagonal tail beyond _S_MAX.
    At alpha = 2 every axis form is diagonal and every cross term an exact
    zero (c_alpha = 0), so the form is the diagonal of the Kronecker sum of
    the omega^2, built as such: the same entries as the sum of products. One
    axis has no cross term, and its form is that axis form, which is exactly
    symmetric already."""
    forms = _once_per_table(partial(_axis_form, alpha=alpha), basis.tables)
    if alpha == 2:
        return np.diag(reduce(np.add.outer, [np.diag(A) for A in forms]).ravel())
    if len(forms) == 1:
        return forms[0]
    from scipy.special import gamma

    c = 0.5 * alpha / gamma(1 - 0.5 * alpha)
    eye = [np.eye(len(A)) for A in forms]
    E = sum(_kron(eye[:i] + [A[None]] + eye[i + 1 :], np.ones(1)) for i, A in enumerate(forms))
    subsets = [S for m in range(2, len(eye) + 1) for S in combinations(range(len(eye)), m)]
    s, ws = log_panels(_S_MIN, _S_MAX, _S_PANELS_PER_DECADE, _S_NODES)
    w, tail = c * ws * s ** (-1 - 0.5 * alpha), c * _S_MAX ** (-0.5 * alpha) / (0.5 * alpha)
    grams = _once_per_table(partial(_subordination_grams, s=s), basis.tables) if subsets else []
    for S in subsets:
        sign = (-1.0) ** (len(S) + 1)
        E += _kron([grams[i] if i in S else I for i, I in enumerate(eye)], sign * w)
        # s > _S_MAX, where the product of the D_i(s) is I + O(s^-1/2)
        E[np.diag_indices_from(E)] += sign * tail
    return 0.5 * (E + E.T)


def _once_per_table(fn, tables):
    """[fn(t) for t in tables], with fn evaluated once per distinct axis table
    (the two axes of a square share one)."""
    out = []
    for i, t in enumerate(tables):
        same = next((j for j in range(i) if all(map(np.array_equal, t, tables[j]))), None)
        out.append(fn(t) if same is None else out[same])
    return out


def _kron(factors, weights):
    """sum_s weights[s] F_1(s) (x) ... (x) F_d(s) as one row-major matrix, each
    factor an array (len(weights), n_i, n_i), or (n_i, n_i) where it does not
    depend on s."""
    rows, cols = "abcdefgh"[: len(factors)], "ijklmnop"[: len(factors)]
    spec = ",".join("s" * (f.ndim - 2) + r + c for f, r, c in zip(factors, rows, cols))
    out = np.einsum(f"s,{spec}->{rows}{cols}", weights, *factors, optimize=True)
    return out.reshape(np.prod(out.shape[: len(rows)]), -1)


def _parity_amplitudes(h, n_modes, u, weight=None):
    """The amplitudes of the odd modes k = 1, 3, ... and of the even modes
    k = 2, 4, ... of (-h, h) at the panel coordinates u = xi / (pi / (4 h)) of
    _axis_quadrature: two contiguous blocks (ceil(n_modes / 2), len(u)) and
    (floor(n_modes / 2), len(u)), each times ``weight`` (per node) if given.

    The transforms of the odd modes are real and those of the even modes
    imaginary, so the blocks hold the real parts of the former and the
    imaginary parts of the latter. The form is translation invariant, so any
    component of half-length h has the same single-component form matrix,
    E_jk = G_j G_k, which vanishes exactly for j, k of different parity. In
    closed form (basis_mode_transform),

        G_k = 2 omega_k trig_k(xi h) / (sqrt(h) (omega_k^2 - xi^2))
            = (16 sqrt(h) / pi) k trig_k(pi u / 4) / ((2k - u) (2k + u)),

    with trig = cos for odd k and sin for even k: one trig value per node,
    shared by every mode. Both factors vanish at u = 2k. With q the even
    integer nearest u, u - q is exact and trig comes from sin and cos of
    pi (u - q) / 4 by quadrant, so next to u = 2k the numerator and 2k - u
    keep full relative accuracy. In xi, omega^2 - xi^2 and cos(xi h) at
    xi h of thousands would each lose about ulp(xi h) absolute there.
    """
    q = 2 * np.round(0.5 * u)
    t = 0.25 * np.pi * (u - q)
    s, c = np.sin(t), np.cos(t)
    m = (0.5 * q % 4).astype(int)  # pi u / 4 = m pi / 2 + t
    trig = (np.choose(m, (c, -s, -c, s)), np.choose(m, (s, c, -s, -c)))  # cos, sin
    two_k = 2.0 * np.arange(1, n_modes + 1)[:, None]
    blocks = []
    for first, trig_u in enumerate(trig):
        tk = two_k[first::2]
        G = (tk - u) * (tk + u)
        np.divide(tk * (8 * np.sqrt(h) / np.pi), G, out=G)
        G *= trig_u
        if weight is not None:
            G *= weight
        blocks.append(G)
    return blocks


def _axis_form(table, alpha):
    """Form matrix of an axis table (an interval union): per pair of components
    (a, b), the Gram product of their amplitudes (_parity_amplitudes) times
    cos(xi (c_b - c_a)) on same-parity entries, +-sin on the others (+ on odd-k rows)."""
    c, h, kk, om = table
    if alpha == 2:
        # the sine modes are Laplacian eigenfunctions: omega^2 on the diagonal
        return np.diag(om**2)
    m = int(kk.max())  # modes per component, each component's rows consecutive
    starts = range(0, c.size, m)
    h_min = h.min()
    u, nodes, wts, xi_max = _axis_quadrature(h_min, m)
    root_w = np.sqrt(wts * nodes**alpha)
    pars = (slice(0, m, 2), slice(1, m, 2))  # the rows of odd k, of even k
    A = np.zeros((c.size, c.size))
    chunk = max(1, _CHUNK_ENTRIES // c.size)
    for i0 in range(0, nodes.size, chunk):
        xi, r = nodes[i0 : i0 + chunk], root_w[i0 : i0 + chunk]
        # the h_min grid in the panel coordinate of half-length h_a: u h_a / h_min
        G = [_parity_amplitudes(h[a], m, u[i0 : i0 + chunk] * (h[a] / h_min), r)
             for a in starts]
        for i, a in enumerate(starts):
            block = A[a : a + m, a : a + m]
            for par, X in zip(pars, G[i]):
                block[par, par] += X @ X.T
            for j, b in enumerate(starts[i + 1 :], start=i + 1):
                theta = xi * (c[b] - c[a])
                cos, sin = np.cos(theta), np.sin(theta)
                cross = np.empty((m, m))
                for p, sign in enumerate((1.0, -1.0)):
                    cross[pars[p], pars[p]] = (G[i][p] * cos) @ G[j][p].T
                    cross[pars[p], pars[1 - p]] = (G[i][p] * (sign * sin)) @ G[j][1 - p].T
                A[a : a + m, b : b + m] += cross
                A[b : b + m, a : a + m] += cross.T
    A /= np.pi
    for a in starts:  # analytic tails, per component (cross-component terms decay faster)
        own = slice(a, a + m)
        A[own, own] += _tail_integrals(om[own], kk[own], h[a], alpha, xi_max)
    return 0.5 * (A + A.T)


def _subordination_grams(table, s):
    """D(s) (module docstring) at every s (ascending), shape (len(s), n, n),
    for the axis table of one interval, on the xi grid and parity blocks of
    _axis_form. Per parity block only the entries j <= k are formed, then
    mirrored. The xi nodes go in blocks of _SAT_PANELS whole panels: where
    s xi_0^2 >= _X_SAT at the block's smallest node xi_0, the weight
    -expm1(-s xi^2) is exactly 1 on the whole block, so those rows take the
    block's wts-weighted product sum, added to every row from the first
    saturated one on by one cumulative sum over s; expm1 and the Gram product
    run only on the rows below it."""
    from scipy.special import erfc

    _, hs, kk, om = table
    h, n = hs[0], kk.size
    u, nodes, wts, xi_max = _axis_quadrature(h, n)
    rows = [np.arange(n)[par] for par in (slice(0, n, 2), slice(1, n, 2))]
    upper = [np.triu_indices(r.size) for r in rows]
    live = [np.zeros((s.size, j.size)) for j, _ in upper]
    jumps = [np.zeros((s.size + 1, j.size)) for j, _ in upper]  # row s.size: never saturated
    step = _SAT_PANELS * _GL_NODES
    for i0 in range(0, nodes.size, step):
        xi, w = nodes[i0 : i0 + step], wts[i0 : i0 + step]
        cut = np.searchsorted(s, _X_SAT / xi[0] ** 2)  # rows [cut:] saturated
        W = -np.expm1(-np.outer(s[:cut], xi**2)) * w
        G = _parity_amplitudes(h, n, u[i0 : i0 + step])
        for Gp, (j, k), L, J in zip(G, upper, live, jumps):
            products = Gp[j] * Gp[k]
            L[:cut] += W @ products.T
            J[cut] += products @ w
    D = np.zeros((s.size, n, n))
    for r, (j, k), L, J in zip(rows, upper, live, jumps):
        L += np.cumsum(J[:-1], axis=0)
        D[:, r[j], r[k]] = L
        D[:, r[k], r[j]] = L
    D /= np.pi
    # beyond Xi: the alpha = 0 tail times the ratio of the integrals over
    # (Xi, inf) of (1 - e^(-s xi^2)) xi^-4 and of xi^-4, with x = s Xi^2
    x = s * xi_max**2
    ramp = -np.expm1(-x) + 2 * x * np.exp(-x) - 2 * np.sqrt(np.pi) * x**1.5 * erfc(np.sqrt(x))
    D += ramp[:, None, None] * _tail_integrals(om, kk, h, 0.0, xi_max)
    return D


# ---------------- spectral solve ----------------


@dataclass
class SpectralResult:
    """Eigenvalues (ascending; ties antisymmetric first) and eigenvectors of the form.

    coefficients[n-1] holds the basis coefficients of mode n (1-based mode
    numbering throughout). symmetry[n-1] is its x1-reflection block, "symmetric"
    or "antisymmetric"; "none" only on a domain that is not x1-symmetric. On a
    product of d >= 2 intervals each mode also has one parity per axis after
    x1: its coefficients on the modes of the other parity are exactly 0.0.
    star_index is the 1-based index of the lowest antisymmetric mode when it is
    among the reported modes, else None.
    """

    domain: Domain
    alpha: float
    basis: SineBasis | DiskBasis
    eigenvalues: np.ndarray
    coefficients: np.ndarray
    symmetry: list
    star_index: int | None

    @property
    def lambda1(self):
        return float(self.eigenvalues[0])

    @property
    def lambda2(self):
        if len(self.eigenvalues) < 2:
            raise ValidationError("lambda2 needs two reported modes: n_report (and the basis) >= 2")
        return float(self.eigenvalues[1])

    @property
    def lambda_star(self):
        if self.star_index is None:
            why = "domain is not x1-symmetric" if self.symmetry[0] == "none" else "raise n_report"
            raise ValidationError(f"no antisymmetric mode among the reported modes: {why}")
        return float(self.eigenvalues[self.star_index - 1])

    def check_mode(self, n):
        """Raise ValidationError unless n numbers a reported mode (1-based): a
        count (require_count) no larger than the number of reported modes."""
        require_count(n, "mode")
        if n > len(self.coefficients):
            raise ValidationError(f"mode {n} outside 1..{len(self.coefficients)}")

    def eigenfunction(self, n):
        """Callable evaluating mode n (1-based) at points of shape (..., d)
        (evaluate_basis_sum)."""
        self.check_mode(n)
        return partial(evaluate_basis_sum, self.basis, self.coefficients[n - 1])


def solve_spectrum(domain, alpha, n_basis, n_report=None):
    """Assemble, run eigh per exact block (_reflection_blocks_eigh; x1 labels by
    block), locate the star mode. The blocks are the sign-eigenspaces of the
    x1 reflection (the identity on a domain that is not x1-symmetric), split by
    the parities of each basis function's modes on every axis after x1: the
    form never couples modes of different parity on a one-interval axis,
    centred or not."""
    if n_report is not None:
        require_count(n_report, "n_report")
    A, basis = assemble_form_matrix(domain, alpha, n_basis)
    symmetric = domain.summarize().symmetric_x1
    image, sign = basis.reflection() if symmetric else (np.arange(len(A)), np.ones(len(A)))
    blocks = _reflection_blocks_eigh(A, image, sign, basis.labels())
    evals, coeffs, anti = (np.concatenate(part) for part in zip(*blocks))
    # cross-block ties agree only to rounding: antisymmetric first within _DEGENERACY_TOL
    order = np.argsort(evals + ~anti * _DEGENERACY_TOL * np.maximum(1.0, evals), kind="stable")
    evals, coeffs, anti = evals[order], coeffs[order], anti[order]
    if evals.min() <= 0:
        raise NumericalBudgetError("projected form lost positivity")
    keep = slice(None, n_report)
    symmetry = np.where(anti[keep], "antisymmetric", "symmetric" if symmetric else "none").tolist()
    star = int(np.argmax(anti)) + 1 if anti[keep].any() else None
    coeffs = _normalize_signs(basis, coeffs[keep])
    return SpectralResult(domain, alpha, basis, evals[keep], coeffs, symmetry, star)


def _reflection_blocks_eigh(A, j, s, parity):
    """eigh of A per block: per sign-eigenspace of the involution R e_i = s_i e_(j_i)
    (the basis's reflection(), or the identity), the part of each parity label (its
    labels()), which R keeps (parity[j_i] = parity[i]). Its columns are e_i (j_i = i, s_i = sign) and
    (e_i + t e_j) / sqrt(2), t = sign s_i, per pair i < j = j_i, gathered from A;
    empty blocks are skipped. Yields eigenvalues, coefficient rows, antisymmetric flags."""
    i, r = np.arange(len(A)), np.sqrt(0.5)
    for sign in (-1.0, 1.0):
        for p in np.unique(parity):
            pair = (j > i) & (parity == p)
            q = j[pair]
            cols = np.concatenate([i[(j == i) & (s == sign) & (parity == p)], i[pair]])
            if cols.size == 0:
                continue
            t, nf = r * sign * s[pair], cols.size - q.size
            C = A[:, cols]
            C[:, nf:] = r * C[:, nf:] + A[:, q] * t
            B = C[cols]
            B[nf:] = r * B[nf:] + t[:, None] * C[q]
            w, V = np.linalg.eigh(B)
            coeffs = np.zeros((w.size, len(A)))
            coeffs[:, cols] = V.T
            coeffs[:, q] = V[nf:].T * t
            coeffs[:, cols[nf:]] *= r
            yield w, coeffs, np.full(w.size, sign < 0)


def _normalize_signs(basis, coeffs):
    """Fix eigenfunction signs: positive at a probe point in the upper half."""
    v = evaluate_basis_sum(basis, coeffs, basis.probe_point())
    # probe on a nodal line: fall back to the largest coefficient
    largest = coeffs[np.arange(len(coeffs)), np.argmax(np.abs(coeffs), axis=1)]
    v = np.where(v == 0, largest, v)
    return np.where((v < 0)[:, None], -coeffs, coeffs)


def evaluate_basis_sum(basis, coeffs, x):
    """Evaluate sum_p coeffs[p] * basis mode p at points x (vectorized).

    x has shape (..., d) in every dimension d (geometry.as_points); the
    result has shape (...), a float for a single point of shape (d,).
    ``coeffs`` may also be a stack (m, size) of coefficient vectors; the
    result then gains a leading axis of length m.
    """
    out = basis.evaluate(np.asarray(coeffs, dtype=float), as_points(x, basis.domain.dim))
    return float(out) if out.ndim == 0 else out


def scaling_check(result, k):
    """lambda_n(k D) * k^alpha should reproduce lambda_n(D); returns the
    scaled eigenvalues of the dilated domain for comparison."""
    scaled = solve_spectrum(result.domain.scale(k), result.alpha, result.basis.counts)
    return scaled.eigenvalues * k**result.alpha
