"""Variational eigensolver for the fractional Dirichlet form on bounded domains.

The quadratic form of the symmetric alpha-stable process killed outside D is

    E(u, u) = (2 pi)^(-d) * integral over R^d of |xi|^alpha |Fu(xi)|^2 dxi

(F the non-unitary Fourier transform). The solver projects this form onto the
Dirichlet-Laplacian sine basis of an interval union or rectangle (whose
transforms are closed-form sinc pairs, stable at their removable
singularities), evaluates the form matrix by panel Gauss-Legendre quadrature
in xi with an analytic power-law tail beyond the truncation point, and
diagonalizes. The quadrature runs in real arithmetic: on one interval, and on
each rectangle axis, the transforms of odd modes are real and those of even
modes imaginary, so the form splits into same-parity blocks (pairs of
different parity are exactly zero) and each block is one real Gram product;
the 2D contraction keeps only the unique same-parity mode pairs of each axis.
Interval unions use the real Gram product of [Re S | Im S]. For alpha = 2 the
sine basis diagonalizes the form exactly and the quadrature is skipped; disks
are supported at alpha = 2 only, through the classical Bessel modes.

Rayleigh-Ritz gives one-sided (from above) approximations, nonincreasing in
the basis size because the sine bases are nested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bounds import bessel_zero, besselj
from .errors import NumericalBudgetError, UnsupportedConfigurationError, ValidationError
from .geometry import Domain

_DEGENERACY_TOL = 1e-9
# entries per xi-chunk of the assembly temporaries (2^21 doubles = 16 MB)
_CHUNK_ENTRIES = 1 << 21


# ---------------- basis ----------------


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal Dirichlet basis metadata.

    kind "sine": 1D interval union; per-mode (center, half_length, omega).
    kind "sine2d": rectangle; tensor modes (j, m) over the two axes.
    kind "disk": Bessel modes (m, k, cos/sin) on a disk, alpha = 2 only.
    """

    domain: Domain
    kind: str
    size: int
    meta: tuple


def _sine_basis_1d(domain, n_per_component):
    modes = []
    for a, b in domain.intervals:
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        for k in range(1, n_per_component + 1):
            modes.append((c, h, k, k * np.pi / (2 * h)))
    return SpectralBasis(domain, "sine", len(modes), tuple(modes))


def _sine_basis_2d(domain, n1, n2):
    (a1, b1), (a2, b2) = domain.params
    ax1 = (0.5 * (a1 + b1), 0.5 * (b1 - a1))
    ax2 = (0.5 * (a2 + b2), 0.5 * (b2 - a2))
    meta = (ax1, ax2, n1, n2)
    return SpectralBasis(domain, "sine2d", n1 * n2, meta)


def _disk_basis(domain, n_modes):
    (cx, cy), r = domain.params
    # gather lowest zeros j(m,k) with angular factor cos/sin
    cand = []
    for m in range(0, 2 * int(np.sqrt(n_modes)) + 8):
        for k in range(1, int(np.sqrt(n_modes)) + 6):
            z = bessel_zero(float(m), k)
            cand.append((z, m, k))
    cand.sort()
    modes = []
    for z, m, k in cand:
        modes.append((m, k, z, "cos"))
        if m > 0:
            modes.append((m, k, z, "sin"))
        if len(modes) >= n_modes:
            break
    return SpectralBasis(domain, "disk", len(modes[:n_modes]), tuple(modes[:n_modes]))


def basis_mode_transform(basis, xi):
    """Fourier transforms of 1D sine modes at frequencies ``xi``.

    Returns an array (size, len(xi)), row p = integral of mode p times
    exp(-i xi x). As omega h = k pi / 2, mode k on the component
    (c - h, c + h) has the transform

        sqrt(h) s_k (sinc_- + sinc_+)         for odd k,
        -i sqrt(h) s_k (sinc_- - sinc_+)      for even k,

    times exp(-i xi c), with sinc_-+ = sinc((omega -+ xi) h / pi) and
    s_k = (-1)^floor(k/2). The sincs of the differences keep it stable at the
    removable singularities xi = +-omega.
    """
    if basis.kind != "sine":
        raise ValidationError("mode transforms are defined for 1D sine bases")
    xi = np.asarray(xi, dtype=float)
    c, h, k, om = (np.array(col)[:, None] for col in zip(*basis.meta))
    odd = k % 2 == 1
    g = np.sinc((om - xi) * h / np.pi)
    g += np.where(odd, 1.0, -1.0) * np.sinc((om + xi) * h / np.pi)
    g *= np.sqrt(h) * np.where(k // 2 % 2 == 0, 1.0, -1.0)
    out = g * np.where(odd, 1.0, -1j)
    for cc in np.unique(c[c != 0]):  # one phase per off-centre component
        out[c[:, 0] == cc] *= np.exp(-1j * xi * cc)
    return out


# ---------------- xi-space quadrature ----------------


def _axis_quadrature(h, n_modes, tail_factor, gl_nodes):
    """GL panel grid on [0, Xi] for an axis with half-length h and n_modes modes."""
    om_max = n_modes * np.pi / (2 * h)
    panel_w = np.pi / (4 * h)
    npan = int(np.ceil(tail_factor * om_max / panel_w))
    xg, wg = leggauss(gl_nodes)
    starts = np.arange(npan) * panel_w
    nodes = (starts[:, None] + 0.5 * panel_w * (xg[None, :] + 1)).ravel()
    wts = np.tile(0.5 * panel_w * wg, npan)
    return nodes, wts, npan * panel_w


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


def assemble_form_matrix(domain, alpha, n_basis, tail_factor=None, gl_nodes=10):
    """Form matrix of the alpha-stable Dirichlet form in the chosen basis.

    Parameters
    ----------
    domain : Domain
    alpha : float in (0, 2]
    n_basis : int or (int, int)
        Modes per interval component, or per axis for rectangles.
    tail_factor : float
        Truncation point of the xi quadrature in units of the largest basis
        frequency (defaults: 8 in 1D, 12 in 2D).

    Returns
    -------
    A, basis : (ndarray, SpectralBasis)
    """
    if not 0 < alpha <= 2:
        raise ValidationError("alpha must lie in (0, 2]")
    if domain.kind == "disk":
        if alpha != 2:
            raise UnsupportedConfigurationError(
                "disk domains are supported at alpha = 2 only"
            )
        basis = _disk_basis(domain, int(n_basis))
        r = domain.params[1]
        return np.diag([(z / r) ** 2 for (_, _, z, _) in basis.meta]), basis

    if domain.kind == "interval_union":
        basis = _sine_basis_1d(domain, int(n_basis))
        if alpha == 2:
            return np.diag([om**2 for (_, _, _, om) in basis.meta]), basis
        if tail_factor is None:
            tail_factor = 8.0
        return _assemble_1d(basis, alpha, tail_factor, gl_nodes), basis

    if domain.kind == "rectangle":
        n1, n2 = (n_basis, n_basis) if np.isscalar(n_basis) else n_basis
        basis = _sine_basis_2d(domain, int(n1), int(n2))
        if alpha == 2:
            (_, h1), (_, h2), _, _ = basis.meta
            lam = [
                (j * np.pi / (2 * h1)) ** 2 + (m * np.pi / (2 * h2)) ** 2
                for j in range(1, n1 + 1)
                for m in range(1, n2 + 1)
            ]
            return np.diag(lam), basis
        if tail_factor is None:
            tail_factor = 12.0
        return _assemble_2d(basis, alpha, tail_factor, gl_nodes), basis

    raise ValidationError(f"unknown domain kind {domain.kind!r}")


def _centred_amplitudes(h, n_modes, xi):
    """Real amplitudes G (n_modes, len(xi)) of the sine modes of (-h, h).

    The transforms of the odd modes k = 1, 3, ... (rows 0, 2, ...) are real
    and those of the even modes imaginary, so G holds the real parts of the
    former and the imaginary parts of the latter. The form is translation
    invariant, so any
    component of half-length h has the same single-component form matrix,
    E_jk = G_j G_k, which vanishes exactly for j, k of different parity.
    """
    S = basis_mode_transform(_sine_basis_1d(Domain.interval(-h, h), n_modes), xi)
    G = S.real.copy()
    G[1::2] = S.imag[1::2]
    return G


def _assemble_1d(basis, alpha, tail_factor, gl_nodes):
    meta = basis.meta
    comps = {}
    for p, (c, h, _, _) in enumerate(meta):
        comps.setdefault((c, h), []).append(p)
    n_per = len(next(iter(comps.values())))
    h_min = min(h for (_, h) in comps)
    nodes, wts, xi_max = _axis_quadrature(h_min, n_per, tail_factor, gl_nodes)
    root_w = np.sqrt(wts * nodes**alpha)

    # real Gram products: Re(S diag(w xi^a) S^H) = X X^T with
    # X = [Re S | Im S] sqrt(w xi^a); one interval splits into parity blocks
    n = basis.size
    A = np.zeros((n, n))
    chunk = max(1, _CHUNK_ENTRIES // n)
    for i0 in range(0, nodes.size, chunk):
        xi = nodes[i0 : i0 + chunk]
        r = root_w[i0 : i0 + chunk]
        if len(comps) == 1:  # then h_min is its half-length
            G = _centred_amplitudes(h_min, n, xi) * r
            for par in (slice(0, n, 2), slice(1, n, 2)):
                X = np.ascontiguousarray(G[par])
                A[par, par] += X @ X.T
        else:
            S = basis_mode_transform(basis, xi)
            X = np.concatenate([S.real * r, S.imag * r], axis=1)
            A += X @ X.T
    A /= np.pi

    # analytic tails, per interval component (cross-component terms decay faster)
    for (c, h), idx in comps.items():
        om = np.array([meta[p][3] for p in idx])
        kk = np.array([meta[p][2] for p in idx])
        tail = _tail_integrals(om, kk, h, alpha, xi_max)
        A[np.ix_(idx, idx)] += tail
    return 0.5 * (A + A.T)


def _same_parity_pairs(n):
    """Index pairs j <= k with j = k mod 2 (0-based), and the (n, n) map from
    every pair (j, k) or (k, j) to its position among them; pairs of
    different parity map to one past the last position."""
    j, k = np.triu_indices(n)
    keep = (k - j) % 2 == 0
    j, k = j[keep], k[keep]
    index = np.full((n, n), j.size)
    index[j, k] = index[k, j] = np.arange(j.size)
    return j, k, index


def _assemble_2d(basis, alpha, tail_factor, gl_nodes):
    (_, h1), (_, h2), n1, n2 = basis.meta
    x1, w1, xi1 = _axis_quadrature(h1, n1, tail_factor, gl_nodes)
    x2, w2, xi2 = _axis_quadrature(h2, n2, tail_factor, gl_nodes)
    # E_jk = G_j G_k is symmetric and zero across parities: contract only the
    # unique same-parity pairs of each axis
    j1, k1, index1 = _same_parity_pairs(n1)
    j2, k2, index2 = _same_parity_pairs(n2)
    G1 = _centred_amplitudes(h1, n1, x1)
    G2 = _centred_amplitudes(h2, n2, x2)
    E1 = G1[j1] * G1[k1]
    E2 = G2[j2] * G2[k2]

    A = np.zeros((j1.size + 1, j2.size + 1))  # last row and column stay zero
    core = A[:-1, :-1]
    chunk = max(1, _CHUNK_ENTRIES // x1.size)
    for q0 in range(0, x2.size, chunk):
        q1 = min(q0 + chunk, x2.size)
        K = (w1[:, None] * w2[None, q0:q1]) * (
            x1[:, None] ** 2 + x2[None, q0:q1] ** 2
        ) ** (alpha / 2)
        core += (E1 @ K) @ np.ascontiguousarray(E2[:, q0:q1]).T

    # axis tail corrections with the separable approximations
    # (xi1^2+xi2^2)^(a/2) ~ xi1^a for xi1 > Xi1 (and symmetrically):
    kk1 = np.arange(1, n1 + 1)
    kk2 = np.arange(1, n2 + 1)
    tail1 = _tail_integrals(kk1 * np.pi / (2 * h1), kk1, h1, alpha, xi1)[j1, k1] * np.pi
    tail2 = _tail_integrals(kk2 * np.pi / (2 * h2), kk2, h2, alpha, xi2)[j2, k2] * np.pi
    core += np.outer(tail1, E2 @ w2) + np.outer(E1 @ w1, tail2)
    core /= np.pi**2

    # scatter back: row (j, m), column (k, l) holds the pair entry ((j,k), (m,l))
    n = n1 * n2
    return A[index1[:, None, :, None], index2[None, :, None, :]].reshape(n, n)


# ---------------- spectral solve ----------------


@dataclass
class SpectralResult:
    """Eigenvalues and eigenvectors of the projected form, sorted ascending.

    coefficients[n-1] holds the basis coefficients of mode n (1-based mode
    numbering throughout). symmetry[n-1] is "symmetric", "antisymmetric", or
    "none"; star_index is the 1-based index of the lowest x1-antisymmetric
    mode when the domain is x1-symmetric, else None.
    """

    domain: Domain
    alpha: float
    basis: SpectralBasis
    eigenvalues: np.ndarray
    coefficients: np.ndarray
    symmetry: list
    star_index: int | None

    @property
    def lambda1(self):
        return float(self.eigenvalues[0])

    @property
    def lambda2(self):
        return float(self.eigenvalues[1])

    @property
    def lambda_star(self):
        if self.star_index is None:
            raise ValidationError("no antisymmetric mode: domain is not x1-symmetric")
        return float(self.eigenvalues[self.star_index - 1])

    def eigenfunction(self, n):
        """Callable evaluating mode n (1-based) at points in R^d."""
        coeffs = self.coefficients[n - 1]

        def fn(x):
            return evaluate_basis_sum(self.basis, coeffs, x)

        return fn


def reflection_matrix(basis):
    """Matrix of the map u(x) -> u(-x1, x2...) in basis coefficients.

    Requires an x1-symmetric domain; for sine modes reflection maps mode k of
    one component to +-mode k of the mirrored component.
    """
    if not basis.domain.summarize().symmetric_x1:
        raise ValidationError("reflection needs an x1-symmetric domain")
    if basis.kind == "sine":
        # mode k on the component centered at c reflects to (-1)^(k+1) times
        # mode k on the component centered at -c
        n = basis.size
        R = np.zeros((n, n))
        meta = basis.meta
        index = {(round(c, 12), round(h, 12), k): p for p, (c, h, k, _) in enumerate(meta)}
        for p, (c, h, k, _) in enumerate(meta):
            q = index[(round(-c, 12), round(h, 12), k)]
            R[q, p] = (-1.0) ** (k + 1)
        return R
    if basis.kind == "sine2d":
        (_, h1), (_, h2), n1, n2 = basis.meta
        signs1 = np.array([(-1.0) ** (j + 1) for j in range(1, n1 + 1)])
        return np.kron(np.diag(signs1), np.eye(n2))
    if basis.kind == "disk":
        n = basis.size
        R = np.zeros((n, n))
        for p, (m, k, z, ang) in enumerate(basis.meta):
            # x1 -> -x1 means theta -> pi - theta: cos(m th) -> (-1)^m cos(m th),
            # sin(m th) -> (-1)^(m+1) sin(m th)
            R[p, p] = (-1.0) ** m if ang == "cos" else (-1.0) ** (m + 1)
        return R
    raise ValidationError(f"unknown basis kind {basis.kind!r}")


def solve_spectrum(domain, alpha, n_basis, tail_factor=None, n_report=None):
    """Assemble, diagonalize, classify symmetries, and locate the star mode."""
    A, basis = assemble_form_matrix(domain, alpha, n_basis, tail_factor=tail_factor)
    evals, evecs = np.linalg.eigh(A)
    if evals[0] <= 0:
        raise NumericalBudgetError("projected form lost positivity; increase tail_factor")
    coeffs = evecs.T  # row n = mode n
    symmetric = domain.summarize().symmetric_x1
    symmetry = ["none"] * len(evals)
    star = None
    if symmetric:
        R = reflection_matrix(basis)
        coeffs = _align_degenerate_blocks(evals, coeffs, R)
        RV = coeffs @ R.T
        sym = np.isclose(RV, coeffs, atol=1e-8).all(axis=1)
        anti = ~sym & np.isclose(RV, -coeffs, atol=1e-8).all(axis=1)
        symmetry = [
            "symmetric" if s else "antisymmetric" if a else "none"
            for s, a in zip(sym, anti)
        ]
        if anti.any():
            star = int(np.argmax(anti)) + 1
    coeffs = _normalize_signs(basis, coeffs)
    if n_report is not None:
        evals = evals[:n_report]
        coeffs = coeffs[:n_report]
        symmetry = symmetry[:n_report]
    return SpectralResult(domain, alpha, basis, evals, coeffs, symmetry, star)


def _align_degenerate_blocks(evals, coeffs, R):
    """Rotate near-degenerate eigenspaces to diagonalize the reflection."""
    out = coeffs.copy()
    i = 0
    n = len(evals)
    while i < n:
        j = i + 1
        while j < n and abs(evals[j] - evals[i]) <= _DEGENERACY_TOL * max(1.0, evals[i]):
            j += 1
        if j - i > 1:
            block = out[i:j]
            Rb = block @ R @ block.T
            w, q = np.linalg.eigh(0.5 * (Rb + Rb.T))
            out[i:j] = q.T @ block
        i = j
    return out


def _normalize_signs(basis, coeffs):
    """Fix eigenfunction signs: positive at a probe point in the upper half."""
    v = evaluate_basis_sum(basis, coeffs, _probe_point(basis.domain))
    # probe on a nodal line: fall back to the largest coefficient
    largest = coeffs[np.arange(len(coeffs)), np.argmax(np.abs(coeffs), axis=1)]
    v = np.where(v == 0, largest, v)
    return np.where((v < 0)[:, None], -coeffs, coeffs)


def _probe_point(domain):
    if domain.kind == "interval_union":
        a, b = domain.intervals[-1]
        return np.array(a + 0.618 * (b - a))
    if domain.kind == "rectangle":
        (a1, b1), (a2, b2) = domain.params
        return np.array([a1 + 0.809 * (b1 - a1), a2 + 0.618 * (b2 - a2)])
    (cx, cy), r = domain.params
    return np.array([cx + 0.53 * r, cy + 0.31 * r])


def evaluate_basis_sum(basis, coeffs, x):
    """Evaluate sum_p coeffs[p] * basis mode p at points x (vectorized).

    ``coeffs`` may also be a stack (m, size) of coefficient vectors; the
    result then gains a leading axis of length m.
    """
    x = np.asarray(x, dtype=float)
    C = np.asarray(coeffs, dtype=float)
    if basis.kind == "sine":
        pts = np.atleast_1d(x)
        out = np.zeros(C.shape[:-1] + pts.shape)
        for p, (c, h, k, om) in enumerate(basis.meta):
            cp = C[..., p, None]
            if not np.any(cp):
                continue
            local = pts - c
            inside = np.abs(local) < h
            out[..., inside] += cp / np.sqrt(h) * np.sin(om * (local[inside] + h))
        return _single_point(out) if x.ndim == 0 else out
    if basis.kind == "sine2d":
        (c1, h1), (c2, h2), n1, n2 = basis.meta
        pts = np.atleast_2d(x)
        u1 = pts[:, 0] - c1
        u2 = pts[:, 1] - c2
        inside = (np.abs(u1) < h1) & (np.abs(u2) < h2)
        out = np.zeros(C.shape[:-1] + pts.shape[:1])
        if np.any(inside):
            jj = np.arange(1, n1 + 1) * np.pi / (2 * h1)
            mm = np.arange(1, n2 + 1) * np.pi / (2 * h2)
            S1 = np.sin(np.outer(u1[inside] + h1, jj)) / np.sqrt(h1)
            S2 = np.sin(np.outer(u2[inside] + h2, mm)) / np.sqrt(h2)
            out[..., inside] = np.einsum(
                "pj,...jm,pm->...p", S1, C.reshape(C.shape[:-1] + (n1, n2)), S2
            )
        return _single_point(out) if x.ndim == 1 else out
    if basis.kind == "disk":
        (cx, cy), r = basis.domain.params
        pts = np.atleast_2d(x)
        dx = pts[:, 0] - cx
        dy = pts[:, 1] - cy
        rho = np.hypot(dx, dy)
        th = np.arctan2(dy, dx)
        inside = rho < r
        out = np.zeros(C.shape[:-1] + pts.shape[:1])
        for p, (m, k, z, ang) in enumerate(basis.meta):
            cp = C[..., p, None]
            if not np.any(cp) or not np.any(inside):
                continue
            radial = np.zeros_like(rho)
            pos = inside & (rho > 0)
            radial[pos] = besselj(float(m), z * rho[pos] / r)
            if m == 0:
                radial[inside & (rho == 0)] = 1.0
            norm = _disk_mode_norm(m, z, r)
            angular = np.cos(m * th) if ang == "cos" else np.sin(m * th)
            out += cp * radial * angular / norm
        return _single_point(out) if x.ndim == 1 else out
    raise ValidationError(f"unknown basis kind {basis.kind!r}")


def _single_point(out):
    # value(s) at a single point: a float, or one per stacked coefficient vector
    out = out[..., 0]
    return float(out) if out.ndim == 0 else out


def _disk_mode_norm(m, z, r):
    # L2 norm of J_m(z rho / r) * angular factor over the disk
    jn1 = besselj(float(m + 1), z)
    ang = 2 * np.pi if m == 0 else np.pi
    return np.sqrt(ang * r**2 * jn1**2 / 2)


def scaling_check(result, k):
    """lambda_n(k D) * k^alpha should reproduce lambda_n(D); returns the
    scaled eigenvalues of the dilated domain for comparison."""
    scaled = solve_spectrum(
        result.domain.scale(k), result.alpha, _basis_request(result.basis)
    )
    return scaled.eigenvalues * k**result.alpha


def _basis_request(basis):
    if basis.kind == "sine":
        per = {}
        for c, h, kk, om in basis.meta:
            per[(c, h)] = max(per.get((c, h), 0), kk)
        return max(per.values())
    if basis.kind == "sine2d":
        return (basis.meta[2], basis.meta[3])
    return basis.size
