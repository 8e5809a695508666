"""Shared quadrature helpers: Gauss-Legendre panel grids on lines and log scales."""

from __future__ import annotations

from functools import reduce

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ValidationError


def panel_gauss(edges, nodes_per_panel=10):
    """Composite Gauss-Legendre rule on the panels defined by ``edges``.

    Parameters
    ----------
    edges : array_like
        Increasing panel boundaries, length npanels + 1.
    nodes_per_panel : int
        Gauss-Legendre nodes per panel.

    Returns
    -------
    x, w : ndarray
        Quadrature nodes and weights.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValidationError("edges must be strictly increasing with at least two entries")
    xg, wg = leggauss(nodes_per_panel)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


def log_panels(lo, hi, panels_per_decade=2, nodes_per_panel=10):
    """Log-spaced panels on [lo, hi], suited to integrands smooth in log x."""
    if not 0 < lo < hi < np.inf:
        raise ValidationError("need 0 < lo < hi < inf")
    ndec = np.log10(hi / lo)
    n = max(1, int(np.ceil(ndec * panels_per_decade)))
    edges = np.exp(np.linspace(np.log(lo), np.log(hi), n + 1))
    return panel_gauss(edges, nodes_per_panel)


def mirror_linspace(a, b, num):
    """np.linspace(a, b, num), made exactly closed under x -> -x when a == -b.

    linspace itself is not: its entries i and num - 1 - i can differ from
    each other's negatives in the last bit. 0.5 * (e - e[::-1]) is exactly
    antisymmetric, and so are the panel_gauss rules on such edges, because
    the Gauss-Legendre nodes are and the weights are symmetric."""
    e = np.linspace(a, b, num)
    return 0.5 * (e - e[::-1]) if a == -b else e


def union_linspaces(comps, num):
    """np.linspace(a, b, num) on each component (a, b) of a sorted interval
    union, made exactly closed under x -> -x where the union is: a component
    symmetric about 0 takes mirror_linspace, and a component j in the left
    half whose partner m - 1 - j is its mirror to the last bit takes the
    partner's points negated and reversed. Their concatenation x then
    satisfies x == -x[::-1] whenever the union is an exact mirror of itself,
    and so do the panel_gauss rules on them (see mirror_linspace)."""
    edges = [mirror_linspace(a, b, num) for a, b in comps]
    m = len(comps)
    for j in range(m // 2):
        (a, b), (c, d) = comps[j], comps[m - 1 - j]
        if a == -d and b == -c:
            edges[j] = -edges[m - 1 - j][::-1]
    return edges


def axis_rules(domain, panels, nodes):
    """Per-axis rules over a product of interval unions: ``panels`` equal
    Gauss-Legendre panels of ``nodes`` nodes on every interval component of
    an axis (see Domain.axis_components), concatenated. Returns [(x, w), ...].
    An axis symmetric about 0 gets a rule closed under x -> -x, nodes and
    weights alike (see union_linspaces)."""
    rules = []
    for comps in domain.axis_components():
        parts = [panel_gauss(e, nodes) for e in union_linspaces(comps, panels + 1)]
        rules.append(tuple(np.concatenate(col) for col in zip(*parts)))
    return rules


def tensor_points(axes):
    """Row-major tensor grid of per-axis node arrays, as points of shape (n, d)."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def tensor_rule(rules):
    """Tensor product of per-axis rules: points (n, d) and weights (n,)."""
    weights = reduce(np.multiply.outer, [w for _, w in rules]).ravel()
    return tensor_points([x for x, _ in rules]), weights
