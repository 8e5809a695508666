"""Bounded domains: products of finite interval unions in any dimension, and disks in 2D.

A product has one tuple of sorted, disjoint (lo, hi) components per axis
(Domain.product): an interval union is a product with one axis, a rectangle
one with two axes of one component each. Every query (membership, geometric
summaries, x1-symmetry, scaling, bounding box) has one path over those axis
components and one for the disk. Domains serialize to a small JSON object so
CLI runs can echo their inputs: the kinds "interval_union", "rectangle" and
"disk". Any other product has no JSON form yet, and to_json refuses it.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ValidationError, as_points

# each JSON kind and the keys of its params
_KINDS = {"interval_union": ("intervals",), "rectangle": ("x1", "x2"), "disk": ("center", "radius")}
_SYMMETRY_TOL = 1e-12  # absolute tolerance of the x1-reflection symmetry test


@dataclass(frozen=True)
class GeometrySummary:
    """Scalar descriptors of a domain used by the spectral bounds."""

    dim: int
    inradius: float
    half_extent: float
    diameter: float
    symmetric_x1: bool
    convex: bool


def _floats(*values):
    """values as floats; ValidationError for entries that are not numbers."""
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ValidationError(f"domain parameters must be numbers, got {values!r}") from None


def _union_components(intervals):
    """Finite, nonempty, disjoint (lo, hi) pairs as floats, sorted."""
    try:
        ivs = tuple(sorted((float(a), float(b)) for a, b in intervals))
    except (TypeError, ValueError):
        raise ValidationError(f"an axis needs (lo, hi) number pairs, got {intervals!r}") from None
    if not ivs:
        raise ValidationError("interval union needs at least one component")
    for a, b in ivs:
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValidationError(f"degenerate interval ({a}, {b})")
    for (_, b0), (a1, _) in zip(ivs[:-1], ivs[1:]):
        if a1 < b0:
            raise ValidationError("interval components must be disjoint")
    return ivs


def _in_union(u, ivs):
    """Open-set membership of the coordinates u in a union of intervals."""
    (a, b), *rest = ivs
    inside = (u > a) & (u < b)
    for a, b in rest:
        inside |= (u > a) & (u < b)
    return inside


@dataclass(frozen=True)
class Domain:
    """A bounded open set, one of the supported kinds.

    kind: "product" | "disk"
    params:
      product: one tuple of (lo, hi) pairs per axis, disjoint, increasing
      disk:    ((cx, cy), radius)
    """

    kind: str
    params: tuple

    # ---------------- constructors ----------------

    @staticmethod
    def product(*unions):
        """The product of interval unions, one iterable of (lo, hi) pairs per axis;
        no axis at all is refused as one empty union."""
        return Domain("product", tuple(map(_union_components, unions or [()])))

    @staticmethod
    def interval(lo, hi):
        return Domain.product([(lo, hi)])

    @staticmethod
    def interval_union(intervals):
        return Domain.product(intervals)

    @staticmethod
    def rectangle(x1lo, x1hi, x2lo, x2hi):
        return Domain.product([(x1lo, x1hi)], [(x2lo, x2hi)])

    @staticmethod
    def disk(cx, cy, radius):
        cx, cy, radius = _floats(cx, cy, radius)
        if not (np.all(np.isfinite([cx, cy, radius])) and radius > 0):
            raise ValidationError("disk needs a finite centre and a finite positive radius")
        return Domain("disk", ((cx, cy), radius))

    # ---------------- basic queries ----------------

    @property
    def dim(self):
        return 2 if self.kind == "disk" else len(self.params)

    def axis_components(self):
        """Interval components per axis of a product: a union has one axis
        holding every component, a rectangle one component per side. Disks
        raise ValidationError."""
        if self.kind == "disk":
            raise ValidationError("a disk is not a product of interval unions")
        return self.params

    def summarize(self):
        """Inradius, horizontal half-extent, diameter, x1-symmetry, convexity."""
        sym = self._symmetric_x1()
        if self.kind == "disk":
            (cx, _), r = self.params
            return GeometrySummary(2, r, abs(cx) + r, 2 * r, sym, True)
        axes = self.axis_components()
        inradius = min(max((b - a) / 2 for a, b in ivs) for ivs in axes)
        half_extent = max(abs(a) for iv in axes[0] for a in iv)
        diameter = float(np.hypot.reduce([hi - lo for lo, hi in self.bounding_box()]))
        convex = all(len(ivs) == 1 for ivs in axes)
        return GeometrySummary(self.dim, inradius, half_extent, diameter, sym, convex)

    def _symmetric_x1(self):
        """Whether x1 -> -x1 maps the domain onto itself, to _SYMMETRY_TOL.
        On the sorted x1 components of m this pairs component i with the
        mirror of component m - 1 - i; eigensolver.mirror_index relies on that pairing."""
        if self.kind == "disk":
            (cx, _), _ = self.params
            return abs(cx) < _SYMMETRY_TOL
        x1 = self.axis_components()[0]
        mirrored = sorted((-b, -a) for a, b in x1)
        return all(
            abs(a - ma) < _SYMMETRY_TOL and abs(b - mb) < _SYMMETRY_TOL
            for (a, b), (ma, mb) in zip(x1, mirrored)
        )

    def contains(self, x):
        """Vectorized open-set membership; boundary points count as outside.

        x: points of shape (..., dim) (as_points); the result has shape (...).
        """
        x = as_points(x, self.dim)
        if self.kind == "disk":
            (cx, cy), r = self.params
            return (x[..., 0] - cx) ** 2 + (x[..., 1] - cy) ** 2 < r**2
        return reduce(operator.and_, map(_in_union, np.moveaxis(x, -1, 0), self.axis_components()))

    def scale(self, k):
        """Image of the domain under x -> k x (homothety about the origin)."""
        if not k > 0:
            raise ValidationError("scale factor must be positive")
        if self.kind == "disk":
            (cx, cy), r = self.params
            return Domain.disk(k * cx, k * cy, k * r)
        return Domain.product(*[[(k * a, k * b) for a, b in ivs] for ivs in self.params])

    def bounding_box(self):
        """((x1lo, x1hi), ...) covering the domain."""
        if self.kind == "disk":
            (cx, cy), r = self.params
            return ((cx - r, cx + r), (cy - r, cy + r))
        return tuple((ivs[0][0], ivs[-1][1]) for ivs in self.axis_components())

    # ---------------- serialization ----------------

    def to_json(self):
        """{"kind", "params"} of a disk, an interval union or a rectangle;
        ValidationError on any other product, which has no JSON form yet."""
        if self.kind == "disk":
            kind, params = "disk", {"center": list(self.params[0]), "radius": self.params[1]}
        elif self.dim == 1:
            kind, params = "interval_union", {"intervals": [list(iv) for iv in self.params[0]]}
        elif list(map(len, self.params)) == [1, 1]:
            kind, params = "rectangle", {f"x{i}": list(s) for i, (s,) in enumerate(self.params, 1)}
        else:
            raise ValidationError(f"no JSON form yet for the product {self.params}")
        return {"kind": kind, "params": params}

    @staticmethod
    def from_json(obj):
        """Inverse of to_json, from the object or its JSON text; ValidationError
        when the text, the keys or the parameter shapes are malformed, or on a
        key that the kind does not have."""
        try:
            if isinstance(obj, str):
                obj = json.loads(obj)
            kind, params = obj["kind"], obj["params"]
            if not isinstance(kind, str) or kind not in _KINDS:
                raise ValidationError(
                    f"unknown domain kind {kind!r}; expected one of {tuple(_KINDS)}")
            for where, given, known in (("domain JSON", obj, ("kind", "params")),
                                        (f"{kind} params", params, _KINDS[kind])):
                unknown = [key for key in given if key not in known]
                if unknown:
                    raise ValidationError(
                        f"unknown key {unknown[0]!r} in {where}; expected {known}")
            if kind == "interval_union":
                return Domain.interval_union(params["intervals"])
            if kind == "rectangle":
                return Domain.rectangle(*params["x1"], *params["x2"])
            return Domain.disk(*params["center"], params["radius"])
        except ValidationError:
            raise
        except (TypeError, KeyError, IndexError, ValueError) as exc:  # JSONDecodeError too
            raise ValidationError(f"malformed domain JSON: {exc!r}") from None

