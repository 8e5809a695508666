"""Free transition kernels, the stable samplers, and their identities.

The two building blocks are the Cauchy transition density (Fourier multiplier
exp(-t |xi|)) and the Gaussian density with multiplier exp(-t |xi|^2). They are
linked by subordination: integrating the Gaussian kernel in its time variable
against the 1/2-stable subordinator density recovers the Cauchy kernel.

Two samplers draw the increments of the processes: the one-sided
beta-stable subordinator (Kanter's product), which time-changes a Gaussian
step in any dimension, and the symmetric alpha-stable law on the line
(Chambers, Mallows and Stuck), which draws a 1D step directly.
"""

from __future__ import annotations

import numpy as np

from ._quad import log_panels
from .errors import ValidationError, as_points


def _squared_distance(x, y):
    """|x - y|^2 of two arrays of points of shape (..., d), broadcast against
    each other, and d, read from the last axis of x; ValidationError unless y
    has that last axis too (as_points)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise ValidationError("points need shape (..., d), got a scalar")
    diff = x - as_points(y, x.shape[-1])
    return np.sum(diff * diff, axis=-1), diff.shape[-1]


def cauchy_constant(dim):
    """Normalizing constant of the Cauchy kernel: Gamma((d+1)/2) / pi^((d+1)/2)."""
    from scipy.special import gammaln

    return float(np.exp(gammaln((dim + 1) / 2) - (dim + 1) / 2 * np.log(np.pi)))


def cauchy_kernel(t, x, y):
    """Transition density of the symmetric 1-stable process in R^d.

    p(t, x, y) = c_d * t / (t^2 + |x-y|^2)^((d+1)/2), for x and y arrays of
    points of shape (..., d) in every dimension, broadcast against each
    other; d is their last axis, which must agree (ValidationError).
    """
    if not np.all(np.asarray(t) > 0):
        raise ValidationError("time must be positive")
    return cauchy_kernel_r2(t, *_squared_distance(x, y))


def cauchy_kernel_r2(t, r2, dim):
    """The Cauchy transition density as a function of r2 = |x - y|^2, for
    callers that hold squared distances rather than points."""
    return cauchy_constant(dim) * t / (t**2 + r2) ** ((dim + 1) / 2)


def gaussian_kernel(t, x, y):
    """Transition density with multiplier exp(-t |xi|^2):

    p(t, x, y) = (4 pi t)^(-d/2) exp(-|x-y|^2 / (4 t)),

    with x and y points of shape (..., d), as in cauchy_kernel.
    """
    if not np.all(np.asarray(t) > 0):
        raise ValidationError("time must be positive")
    r2, dim = _squared_distance(x, y)
    return np.exp(-dim / 2 * np.log(4 * np.pi * t) - r2 / (4 * t))


def subordinator_density_half(t, s):
    """Density in s of the 1/2-stable subordinator at time t:

    g(t, s) = t (4 pi)^(-1/2) s^(-3/2) exp(-t^2 / (4 s)),  s > 0.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if not np.all(t > 0):
        raise ValidationError("time must be positive")
    out = np.zeros(np.broadcast(t, s).shape)
    pos = np.broadcast_to(s, out.shape) > 0
    tb = np.broadcast_to(t, out.shape)
    sb = np.broadcast_to(s, out.shape)
    out[pos] = (
        tb[pos] / np.sqrt(4 * np.pi) * sb[pos] ** -1.5 * np.exp(-tb[pos] ** 2 / (4 * sb[pos]))
    )
    return out if out.ndim else float(out)


def subordination_grid():
    """Shared log-s Gauss-Legendre grid for subordination integrals.

    Covers s in [1e-16, 1e12]; integrands of the form g(t, s) * F(s) with F
    smooth in log s are integrated essentially to machine accuracy for
    t in [1e-5, 1e3]. At a given t the nodes with s far below t^2 carry
    weight below 1e-16 of the largest; the harmonic-extension engine skips
    chunks of such nodes (see steklov.ExtensionEngine.values).
    """
    return log_panels(1e-16, 1e12, panels_per_decade=2, nodes_per_panel=12)


def subordinated_gaussian(t, x, y):
    """Integral over s of gaussian_kernel(s, x, y) * g_{1/2}(t, s), at points
    of shape (..., d) as in cauchy_kernel.

    By the subordination identity this equals cauchy_kernel(t, x, y); the
    quadrature is independent of that closed form and is used to verify it.
    """
    s, w = subordination_grid()
    r2, dim = _squared_distance(x, y)
    r2 = np.atleast_1d(r2)
    g = subordinator_density_half(t, s)
    vals = np.exp(-dim / 2 * np.log(4 * np.pi * s)[None, :] - r2[:, None] / (4 * s)[None, :])
    out = vals @ (w * g)
    return out[0] if out.size == 1 else out


def sample_subordinator_increment(dt, beta, rng, size):
    """Draw `size` increments of the beta-stable subordinator over a step dt.

    Uses the Kanter product representation: with U uniform on (0,1) and W
    standard exponential,

        S = (A(pi U) / W)^((1-beta)/beta),
        A(u) = sin(beta u)^(beta/(1-beta)) sin((1-beta) u) / sin(u)^(1/(1-beta)),

    has Laplace transform exp(-lambda^beta); the increment is dt^(1/beta) * S.
    At beta = 1/2 (the Cauchy process) A(u) = sin^2(u/2) / sin^2(u) =
    1 / (4 cos^2(u/2)) and the increment is dt^2 (1 + tan^2(pi U/2)) / (4 W):
    the same draws of U and W, in the same order, at a fraction of the cost,
    and finite at U = 0, where the product is 0/0.
    """
    if not 0 < beta < 1:
        raise ValidationError("beta must lie in (0, 1)")
    if not dt > 0:
        raise ValidationError("dt must be positive")
    # random() is uniform(0, 1) to the bit (0 + 1 x), without its extra pass
    u = rng.random(size)
    w = rng.exponential(1.0, size)
    if beta == 0.5:
        # 1/cos^2 as 1 + tan^2, tan being the cheaper ufunc; in place, since
        # each temporary would be a fresh array on every Monte Carlo step
        u *= 0.5 * np.pi
        a = np.tan(u, out=u)
        a *= a
        a += 1.0
        a *= 0.25 * dt**2
        a /= w
        return a
    pu = np.pi * u
    a = np.sin(beta * pu) ** (beta / (1 - beta)) * np.sin((1 - beta) * pu) / np.sin(pu) ** (
        1 / (1 - beta)
    )
    return dt ** (1 / beta) * (a / w) ** ((1 - beta) / beta)


def sample_stable_increment(dt, alpha, rng, size):
    """Draw `size` increments over a step dt of the symmetric alpha-stable
    process on the line, E exp(i xi X) = exp(-dt |xi|^alpha), 0 < alpha < 2.

    Uses the Chambers-Mallows-Stuck representation (JASA 1976): with U
    uniform on (0,1), V = pi (U - 1/2) and W standard exponential,

        X = dt^(1/alpha) sin(alpha V) / cos(V)^(1/alpha)
            * (cos((1 - alpha) V) / W)^((1 - alpha) / alpha),

    computed with one power as dt^(1/alpha) sin(alpha V) / cos(V) times
    (cos((1 - alpha) V) / (W cos(V)))^((1 - alpha) / alpha). At alpha = 1
    (the Cauchy process) the power is 1 and the increment is dt tan(V): W is
    not drawn. The law is that of the subordinated Gaussian step sqrt(2 S) N,
    S the alpha/2-stable subordinator increment (sample_subordinator_increment),
    from one or two draws in place of three.
    """
    if not 0 < alpha < 2:
        raise ValidationError("alpha must lie in (0, 2)")
    if not dt > 0:
        raise ValidationError("dt must be positive")
    v = rng.random(size)  # uniform(0, 1) to the bit, without its extra pass
    # in place, since each temporary would be a fresh array on every
    # Monte Carlo step
    v -= 0.5
    v *= np.pi
    if alpha == 1.0:
        x = np.tan(v, out=v)
        x *= dt
        return x
    w = rng.exponential(1.0, size)
    c = np.cos(v)
    w *= c
    b = np.cos((1.0 - alpha) * v)
    b /= w
    x = np.sin(np.multiply(alpha, v, out=v), out=v)
    x /= c
    x *= np.power(b, (1.0 - alpha) / alpha, out=b)
    x *= dt ** (1.0 / alpha)
    return x
