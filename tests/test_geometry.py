"""Domain construction, geometry summaries, and symmetry helpers."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import stablegap
from stablegap import Domain, ValidationError


def test_interval_summary():
    g = Domain.interval(-1.0, 1.0).summarize()
    assert g.dim == 1
    assert abs(g.inradius - 1.0) < 1e-14
    assert abs(g.half_extent - 1.0) < 1e-14
    assert abs(g.diameter - 2.0) < 1e-14
    assert g.symmetric_x1 and g.convex


def test_rectangle_summary():
    g = Domain.rectangle(-2.0, 2.0, -1.0, 1.0).summarize()
    assert g.dim == 2
    assert abs(g.inradius - 1.0) < 1e-14
    assert abs(g.half_extent - 2.0) < 1e-14
    assert abs(g.diameter - 2.0 * np.sqrt(5.0)) < 1e-12
    assert g.symmetric_x1 and g.convex


def test_disk_summary():
    g = Domain.disk(0.0, 0.0, 1.5).summarize()
    assert abs(g.inradius - 1.5) < 1e-14
    assert abs(g.diameter - 3.0) < 1e-14
    assert g.symmetric_x1 and g.convex
    off = Domain.disk(0.3, 0.0, 1.5).summarize()
    assert not off.symmetric_x1
    # the same 1e-12 centre tolerance as reflection symmetry elsewhere
    assert Domain.disk(1e-13, 0.0, 1.0).summarize().symmetric_x1


def test_interval_union_contains_and_symmetry():
    d = Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)])
    assert d.summarize().symmetric_x1
    assert not d.summarize().convex
    inside = d.contains(np.array([[-1.0], [1.0], [0.0], [3.0]]))
    assert list(inside) == [True, True, False, False]
    asym = Domain.interval_union([(-2.0, -0.5), (0.4, 2.0)])
    assert not asym.summarize().symmetric_x1


def test_contains_vectorized_2d():
    d = Domain.rectangle(-2.0, 2.0, -1.0, 1.0)
    pts = np.array([[0.0, 0.0], [1.9, 0.9], [2.1, 0.0], [0.0, -1.1]])
    assert list(d.contains(pts)) == [True, True, False, False]
    disk = Domain.disk(0.0, 0.0, 1.0)
    assert list(disk.contains(np.array([[0.5, 0.5], [0.8, 0.8]]))) == [True, False]


def test_scale():
    d = Domain.interval(-1.0, 1.0).scale(3.0)
    assert d.bounding_box()[0] == (-3.0, 3.0)
    r = Domain.rectangle(-2.0, 2.0, -1.0, 1.0).scale(0.5)
    assert r.summarize().inradius == pytest.approx(0.5)


def test_json_roundtrip():
    for d in (
        Domain.interval(-1.0, 1.0),
        Domain.rectangle(-2.0, 2.0, -1.0, 1.0),
        Domain.disk(0.1, -0.2, 2.0),
        Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)]),
    ):
        d2 = Domain.from_json(d.to_json())
        assert d2.kind == d.kind
        assert d2.params == d.params


@pytest.mark.parametrize(
    "obj, key",
    [({"kind": "rectangle", "params": {"x1": [0, 1], "x2": [0, 1], "x3": [0, 1]}}, "x3"),
     ({"kind": "disk", "params": {"center": [0, 0], "radius": 1}, "scale": 2}, "scale"),
     ({"kind": "interval_union", "params": {"intervals": [[-1, 1]], "radius": 2}}, "radius")],
    ids=["rectangle-x3", "disk-top-level", "union-radius"],
)
def test_from_json_refuses_unknown_keys(obj, key):
    # each of these loaded as the kind with the key dropped: a third side as a
    # 2D rectangle, an extra top-level key as a plain disk, a radius as the union
    for given in (obj, json.dumps(obj)):
        with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
            Domain.from_json(given)


def test_json_text_roundtrip_is_byte_identical():
    for d in (Domain.interval(-1.0, 1.0), Domain.rectangle(-2.0, 2.0, -1.0, 1.0),
              Domain.disk(0.1, -0.2, 2.0), Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)])):
        text = json.dumps(d.to_json(), sort_keys=True)
        assert json.dumps(Domain.from_json(text).to_json(), sort_keys=True) == text


def test_invalid_domains_raise():
    with pytest.raises(ValidationError):
        Domain.interval(1.0, -1.0)
    with pytest.raises(ValidationError):
        Domain.disk(0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        Domain.interval_union([(-1.0, 0.5), (0.0, 1.0)])  # overlapping
    # non-finite sides, centres and radii
    nan, inf = float("nan"), float("inf")
    for args in ((0.0, inf, -1.0, 1.0), (-1.0, 1.0, nan, 1.0), (1.0, -1.0, -1.0, 1.0)):
        with pytest.raises(ValidationError):
            Domain.rectangle(*args)
    for args in ((nan, 0.0, 1.0), (0.0, -inf, 1.0), (0.0, 0.0, inf), (0.0, 0.0, nan)):
        with pytest.raises(ValidationError):
            Domain.disk(*args)
    # entries that are not numbers
    for make in (lambda: Domain.interval_union([(0, "x")]), lambda: Domain.disk("a", 0, 1),
                 lambda: Domain.rectangle(0, 1, None, 1), lambda: Domain.interval(0, [1])):
        with pytest.raises(ValidationError):
            make()


def test_axis_components():
    union = Domain.interval_union([(0.5, 2.0), (-2.0, -0.5)])
    assert union.axis_components() == (((-2.0, -0.5), (0.5, 2.0)),)
    rect = Domain.rectangle(-2.0, 2.0, -1.0, 1.0)
    assert rect.axis_components() == (((-2.0, 2.0),), ((-1.0, 1.0),))
    with pytest.raises(ValidationError):
        Domain.disk(0.0, 0.0, 1.0).axis_components()


def test_product_is_the_one_constructor():
    assert Domain.product([(-1.0, 1.0)]) == Domain.interval(-1.0, 1.0)
    assert Domain.product([(0.5, 2.0), (-2.0, -0.5)]) == Domain.interval_union(
        [(-2.0, -0.5), (0.5, 2.0)])
    assert Domain.product([(-2, 2)], [(-1, 1)]) == Domain.rectangle(-2.0, 2.0, -1.0, 1.0)
    # no axis, an empty axis, a degenerate or overlapping axis, and axes that are not pairs
    for bad in ((), ([],), ([(-1.0, 1.0)], [(1.0, 0.0)]), ([(0.0, 2.0), (1.0, 3.0)],),
                ((-1.0, 1.0), (-1.0, 1.0)), ([(0.0, 1.0, 2.0)],), ("ab",), ([(0.0, "x")],)):
        with pytest.raises(ValidationError):
            Domain.product(*bad)


def test_box_in_three_dimensions():
    box = Domain.product([(-2.0, 2.0)], [(-1.0, 1.0)], [(0.0, 3.0)])
    assert box.dim == 3
    g = box.summarize()
    assert g.dim == 3 and g.convex and g.symmetric_x1
    assert g.inradius == 1.0 and g.half_extent == 2.0
    assert g.diameter == pytest.approx(np.sqrt(16.0 + 4.0 + 9.0), rel=1e-15)
    assert box.bounding_box() == ((-2.0, 2.0), (-1.0, 1.0), (0.0, 3.0))
    assert box.scale(0.5) == Domain.product([(-1.0, 1.0)], [(-0.5, 0.5)], [(0.0, 1.5)])
    pts = np.array([[[0.0, 0.0, 1.0], [1.9, 0.9, 2.9]], [[0.0, 0.0, -0.1], [2.1, 0.0, 1.0]]])
    assert box.contains(pts).tolist() == [[True, True], [False, False]]
    for shape in ((4, 2), (2,), (4, 4)):
        with pytest.raises(ValidationError, match=r"\(\.\.\., 3\)"):
            box.contains(np.zeros(shape))


def test_products_without_a_json_form_are_refused():
    # only the interval union and the rectangle have JSON names; CLI runs echo those alone
    for d in (Domain.product([(-2.0, -0.5), (0.5, 2.0)], [(-1.0, 1.0)]),
              Domain.product([(-1.0, 1.0)], [(-1.0, 1.0)], [(-1.0, 1.0)])):
        with pytest.raises(ValidationError, match="no JSON form"):
            d.to_json()
    assert Domain.product([(-1.0, 1.0)], [(0.0, 1.0)]).to_json() == {
        "kind": "rectangle", "params": {"x1": [-1.0, 1.0], "x2": [0.0, 1.0]}}
    assert Domain.product([(0.5, 2.0), (-2.0, -0.5)]).to_json() == {
        "kind": "interval_union", "params": {"intervals": [[-2.0, -0.5], [0.5, 2.0]]}}


def _kind_name_owners(tree, names):
    """The owner of every string constant in names: the innermost enclosing
    function or class, or the names a module-level assignment binds."""
    owners = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        elif isinstance(node, ast.Assign) and owner is None:
            owner = ",".join(t.id for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.Constant) and node.value in names:
            owners.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return owners


def test_json_kind_names_stay_in_the_json_form():
    # every product is one kind; its JSON names are the JSON form's business.
    # Code elsewhere asks for the shape (dim, axis_components), so a new
    # branch on "rectangle" or "interval_union" fails here
    names = {"rectangle", "interval_union"}
    owners = {}
    for path in sorted(Path(stablegap.__file__).parent.glob("*.py")):
        found = _kind_name_owners(ast.parse(path.read_text(), str(path)), names)
        if found:
            owners[path.name] = set(found)
    assert owners == {"geometry.py": {"_KINDS", "to_json", "from_json"}}
