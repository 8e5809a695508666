"""Bounded domains: finite interval unions in 1D, axis-aligned rectangles and disks in 2D.

A domain knows its dimension, a few geometric summaries (inradius, horizontal
half-extent, diameter), point membership, reflection symmetry in the first
coordinate, and scaling. Domains serialize to a small JSON object so CLI runs
can echo their inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_KINDS = ("interval_union", "rectangle", "disk")


@dataclass(frozen=True)
class GeometrySummary:
    """Scalar descriptors of a domain used by the spectral bounds."""

    dim: int
    inradius: float
    half_extent: float
    diameter: float
    symmetric_x1: bool
    convex: bool


@dataclass(frozen=True)
class Domain:
    """A bounded open set, one of the supported kinds.

    kind: "interval_union" | "rectangle" | "disk"
    params:
      interval_union: tuple of (lo, hi) pairs, disjoint, increasing
      rectangle:      ((x1lo, x1hi), (x2lo, x2hi))
      disk:           ((cx, cy), radius)
    """

    kind: str
    params: tuple

    # ---------------- constructors ----------------

    @staticmethod
    def interval(lo, hi):
        return Domain.interval_union([(lo, hi)])

    @staticmethod
    def interval_union(intervals):
        ivs = tuple((float(a), float(b)) for a, b in intervals)
        if not ivs:
            raise ValidationError("interval union needs at least one component")
        for a, b in ivs:
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise ValidationError(f"degenerate interval ({a}, {b})")
        ivs = tuple(sorted(ivs))
        for (_, b0), (a1, _) in zip(ivs[:-1], ivs[1:]):
            if a1 < b0:
                raise ValidationError("interval components must be disjoint")
        return Domain("interval_union", ivs)

    @staticmethod
    def rectangle(x1lo, x1hi, x2lo, x2hi):
        if not (x1lo < x1hi and x2lo < x2hi):
            raise ValidationError("rectangle sides must have positive length")
        return Domain("rectangle", ((float(x1lo), float(x1hi)), (float(x2lo), float(x2hi))))

    @staticmethod
    def disk(cx, cy, radius):
        if not radius > 0:
            raise ValidationError("disk radius must be positive")
        return Domain("disk", ((float(cx), float(cy)), float(radius)))

    # ---------------- basic queries ----------------

    @property
    def dim(self):
        return 1 if self.kind == "interval_union" else 2

    @property
    def intervals(self):
        if self.kind != "interval_union":
            raise ValidationError("not an interval union")
        return self.params

    def axis_components(self):
        """Interval components per axis, for domains that are products of
        interval unions: a union has one axis holding every component, a
        rectangle one component per side. Disks raise ValidationError."""
        if self.kind == "interval_union":
            return (self.params,)
        if self.kind == "rectangle":
            return tuple((side,) for side in self.params)
        raise ValidationError("a disk is not a product of interval unions")

    def summarize(self):
        """Inradius, horizontal half-extent, diameter, x1-symmetry, convexity."""
        if self.kind == "interval_union":
            ivs = self.params
            inradius = max((b - a) / 2 for a, b in ivs)
            half_extent = max(abs(a) for iv in ivs for a in iv)
            diameter = ivs[-1][1] - ivs[0][0]
            convex = len(ivs) == 1
            sym = self._symmetric_x1()
            return GeometrySummary(1, inradius, half_extent, diameter, sym, convex)
        if self.kind == "rectangle":
            (a1, b1), (a2, b2) = self.params
            inradius = min(b1 - a1, b2 - a2) / 2
            half_extent = max(abs(a1), abs(b1))
            diameter = float(np.hypot(b1 - a1, b2 - a2))
            return GeometrySummary(2, inradius, half_extent, diameter, self._symmetric_x1(), True)
        (cx, cy), r = self.params
        return GeometrySummary(2, r, abs(cx) + r, 2 * r, self._symmetric_x1(), True)

    def _symmetric_x1(self):
        if self.kind == "interval_union":
            mirrored = sorted((-b, -a) for a, b in self.params)
            return all(
                abs(a - ma) < 1e-12 and abs(b - mb) < 1e-12
                for (a, b), (ma, mb) in zip(self.params, mirrored)
            )
        if self.kind == "rectangle":
            (a1, b1), _ = self.params
            return abs(a1 + b1) < 1e-12
        (cx, _), _ = self.params
        return abs(cx) < 1e-12

    def contains(self, x):
        """Vectorized open-set membership; boundary points count as outside.

        x: array of shape (..., dim) in 2D, or (...,) in 1D.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "interval_union":
            inside = np.zeros(x.shape, dtype=bool)
            for a, b in self.params:
                inside |= (x > a) & (x < b)
            return inside
        if x.shape[-1] != 2:
            raise ValidationError("2D domain expects points of shape (..., 2)")
        if self.kind == "rectangle":
            (a1, b1), (a2, b2) = self.params
            return (x[..., 0] > a1) & (x[..., 0] < b1) & (x[..., 1] > a2) & (x[..., 1] < b2)
        (cx, cy), r = self.params
        return (x[..., 0] - cx) ** 2 + (x[..., 1] - cy) ** 2 < r**2

    def scale(self, k):
        """Image of the domain under x -> k x (homothety about the origin)."""
        if not k > 0:
            raise ValidationError("scale factor must be positive")
        if self.kind == "interval_union":
            return Domain.interval_union([(k * a, k * b) for a, b in self.params])
        if self.kind == "rectangle":
            (a1, b1), (a2, b2) = self.params
            return Domain.rectangle(k * a1, k * b1, k * a2, k * b2)
        (cx, cy), r = self.params
        return Domain.disk(k * cx, k * cy, k * r)

    def volume(self):
        if self.kind == "interval_union":
            return sum(b - a for a, b in self.params)
        if self.kind == "rectangle":
            (a1, b1), (a2, b2) = self.params
            return (b1 - a1) * (b2 - a2)
        _, r = self.params
        return np.pi * r**2

    def bounding_box(self):
        """((x1lo, x1hi), ...) covering the domain."""
        if self.kind == "interval_union":
            return ((self.params[0][0], self.params[-1][1]),)
        if self.kind == "rectangle":
            return self.params
        (cx, cy), r = self.params
        return ((cx - r, cx + r), (cy - r, cy + r))

    # ---------------- serialization ----------------

    def to_json(self):
        if self.kind == "interval_union":
            params = {"intervals": [list(iv) for iv in self.params]}
        elif self.kind == "rectangle":
            params = {"x1": list(self.params[0]), "x2": list(self.params[1])}
        else:
            params = {"center": list(self.params[0]), "radius": self.params[1]}
        return {"kind": self.kind, "params": params}

    @staticmethod
    def from_json(obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        try:
            kind = obj["kind"]
            params = obj["params"]
        except (TypeError, KeyError) as exc:
            raise ValidationError("domain JSON needs 'kind' and 'params'") from exc
        if kind == "interval_union":
            return Domain.interval_union(params["intervals"])
        if kind == "rectangle":
            return Domain.rectangle(*params["x1"], *params["x2"])
        if kind == "disk":
            return Domain.disk(*params["center"], params["radius"])
        raise ValidationError(f"unknown domain kind {kind!r}; expected one of {_KINDS}")


def reflect_x1(x, dim):
    """Reflection (x1, x2, ...) -> (-x1, x2, ...), vectorized."""
    x = np.asarray(x, dtype=float)
    if dim == 1:
        return -x
    out = x.copy()
    out[..., 0] = -out[..., 0]
    return out


def positive_half(domain):
    """The subset {x1 > 0} of a domain symmetric in x1, as a domain."""
    if not domain.summarize().symmetric_x1:
        raise ValidationError("positive_half requires an x1-symmetric domain")
    if domain.kind == "interval_union":
        halves = [(max(a, 0.0), b) for a, b in domain.params if b > 0]
        return Domain.interval_union(halves)
    if domain.kind == "rectangle":
        (a1, b1), (a2, b2) = domain.params
        return Domain.rectangle(0.0, b1, a2, b2)
    raise ValidationError("positive_half of a disk is not a supported domain kind")
