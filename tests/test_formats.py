"""Document serialization: deterministic JSON, scene/solution files, CSV."""

import json

import numpy as np
import pytest

from gapspline import (
    FormatError,
    ResidualSystem,
    SceneDocument,
    build_layout,
    emit_json,
    format_float,
    normalize_scene,
    parse_lagrangian,
    read_scene,
    read_solution,
    solution_curve_from_document,
    solve,
    write_csv,
    write_solution,
)

from conftest import SCENES_DIR, L_EX1, write_scene


def _solved(scene, text=L_EX1):
    normalized = normalize_scene(scene)
    layout = build_layout(normalized)
    solution = solve(ResidualSystem(layout, parse_lagrangian(text)))
    return normalized, solution


# ------------------------------------------------------------------ json


def test_format_float_round_trips_doubles():
    values = [np.pi, 1.0 / 3.0, 1e-300, 1e300, -12345.678912345, np.sqrt(2.0), 0.1]
    for v in values:
        assert float(format_float(v)) == v


def test_emit_json_layout_is_stable():
    text = emit_json({"a": 1, "b": [1.0, 2.5], "c": {"d": "x"}, "e": True, "f": None})
    assert text == (
        '{\n'
        '  "a": 1,\n'
        '  "b": [1, 2.5],\n'
        '  "c": {\n'
        '    "d": "x"\n'
        '  },\n'
        '  "e": true,\n'
        '  "f": null\n'
        '}'
    )
    assert emit_json({}) == "{}"
    assert emit_json({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}'


def test_emit_json_preserves_insertion_order():
    assert emit_json({"z": 1, "a": 2}).index('"z"') < emit_json({"z": 1, "a": 2}).index('"a"')


def test_emit_json_non_numeric_lists_go_multiline():
    text = emit_json([[1.0, 2.0], [3.0, 4.0]])
    assert text == '[\n  [1, 2],\n  [3, 4]\n]'


def test_emit_json_number_rows_match_per_item_formatting():
    def reference(row):
        return "[" + ", ".join(format_float(v) if isinstance(v, float) else str(v) for v in row) + "]"

    rows = [
        [0.1, 1.0 / 3.0, -2.5, 1e300, 4.0],
        list(np.array([np.pi, -1e-7, 0.0, 2.0**60])),  # np.float64 items
        [-0.0, 1e-300, 5e-324],
        [1, 0.5, -3, 2.0],
        [],
    ]
    assert isinstance(rows[1][0], np.float64)
    for row in rows:
        assert emit_json(row) == reference(row)
        assert emit_json(tuple(row)) == reference(row)


def test_emit_json_rejects_unknown_types():
    with pytest.raises(FormatError):
        emit_json({"bad": {1, 2}})


# ----------------------------------------------------------------- scenes


def test_scene_round_trip(scene_2d):
    doc = SceneDocument(scene_2d, True, L_EX1)
    back = read_scene(write_scene(doc))
    assert back.has_topology
    assert back.lagrangian_text == L_EX1
    assert back.scene.solution_degree == 3 and back.scene.solution_pieces == 1
    np.testing.assert_array_equal(back.scene.left.points, scene_2d.left.points)
    np.testing.assert_array_equal(back.scene.right.points, scene_2d.right.points)
    assert back.scene.left.knots == scene_2d.left.knots


def test_scene_round_trip_without_topology(scene_2d):
    text = write_scene(SceneDocument(scene_2d, False, None))
    assert '"solution"' not in text and '"lagrangian"' not in text
    back = read_scene(text)
    assert not back.has_topology
    assert back.lagrangian_text is None


def test_scene_write_is_deterministic(scene_2d):
    doc = SceneDocument(scene_2d, True, L_EX1)
    assert write_scene(doc) == write_scene(doc)


def test_shipped_scene_files_parse():
    for name in ("example1", "example2", "example3", "example4", "mul_0_1", "mul_1_1"):
        doc = read_scene((SCENES_DIR / f"{name}.json").read_text())
        assert doc.lagrangian_text
        assert doc.scene.dim in (2, 3)


def test_read_scene_error_paths(scene_2d):
    good = write_scene(SceneDocument(scene_2d, True, L_EX1))

    def corrupt(fn):
        import json

        doc = json.loads(good)
        fn(doc)
        return json.dumps(doc)

    bad_texts = [
        "not json",
        "[1, 2]",
        corrupt(lambda d: d.update(version=2)),
        corrupt(lambda d: d.update(dim=5)),
        corrupt(lambda d: d.pop("left")),
        corrupt(lambda d: d["left"].pop("knots")),
        corrupt(lambda d: d["left"].update(degree=3.0)),
        corrupt(lambda d: d["left"].update(knots=[0, 0, 1, 1])),
        corrupt(lambda d: d["left"].update(points=[[0, 0, 0]] * 4)),
        corrupt(lambda d: d["left"].update(points=[[0, "a"]] * 4)),
        corrupt(lambda d: d["right"].update(points=[[0, 0], [1, 1, 1], [2, 2], [3, 3]])),
        corrupt(lambda d: d.update(solution=[3, 1])),
        corrupt(lambda d: d["solution"].update(pieces="two")),
        corrupt(lambda d: d.update(lagrangian=7)),
    ]
    for text in bad_texts:
        with pytest.raises(FormatError):
            read_scene(text)
    # JSON true is not an integer, though Python's bool is an int
    for fn, message in [
        (lambda d: d["left"].update(points=[[0, "a"]] * 4), r"left.points must be an n x 2 array of numbers"),
        (lambda d: d["right"].update(points=[[0, 0], [1]]), r"right.points must be an n x 2 array of numbers"),
        (lambda d: d.update(version=True), "version True"),
        (lambda d: d["left"].update(degree=True), "left.degree must be an integer"),
        (lambda d: d["solution"].update(degree=True), "must be integers"),
        (lambda d: d["solution"].update(pieces=True), "must be integers"),
        # numeric strings, true/false and integral floats are refused
        (lambda d: d["left"]["knots"].__setitem__(0, "0"), "left.knots invalid: must be an array of numbers"),
        (lambda d: d["left"]["knots"].__setitem__(0, False), "left.knots invalid: must be an array of numbers"),
        (lambda d: d["right"].update(knots="0000111"), "right.knots invalid: must be an array of numbers"),
        (lambda d: d["right"]["points"][0].__setitem__(1, "4"), "right.points must be an n x 2 array of numbers"),
        (lambda d: d["right"]["points"][0].__setitem__(1, True), "right.points must be an n x 2 array of numbers"),
        (lambda d: d["left"].update(points="0123"), "left.points must be an n x 2 array of numbers"),
        # an integer literal beyond float range
        (lambda d: d["left"]["knots"].__setitem__(0, -(10**400)), "left.knots invalid"),
        (lambda d: d["left"]["points"][0].__setitem__(0, 10**400), "left.points must be an n x 2 array of numbers"),
        (lambda d: d.update(version=1.0), r"version 1\.0"),
        (lambda d: d.update(dim=2.0), r"dim must be 2 or 3, got 2\.0"),
        (lambda d: d.update(dim="2"), "dim must be 2 or 3, got '2'"),
        (lambda d: d.update(dim=True), "dim must be 2 or 3, got True"),
    ]:
        with pytest.raises(FormatError, match=message):
            read_scene(corrupt(fn))
    assert FormatError("x").exit_code == 2


# -------------------------------------------------------------- solutions


def test_solution_file_contents(scene_2d):
    normalized, solution = _solved(scene_2d)
    text = write_solution(scene_2d, solution, normalized.transform, L_EX1, None)
    doc = read_solution(text)
    assert doc["version"] == 1
    assert doc["dim"] == 2
    assert doc["lagrangian"] == L_EX1
    assert doc["alpha"] == solution.alpha  # exact double round-trip
    assert doc["plan"] is None
    np.testing.assert_array_equal(doc["normalized_points"], solution.control_points)

    # stored original points must be the inverse-normalization of the
    # stored normalized points
    inv = normalized.transform.inverse()
    np.testing.assert_allclose(
        doc["original_points"], inv.apply(solution.control_points), atol=1e-10
    )


def test_solution_write_is_byte_identical(scene_2d):
    normalized, solution = _solved(scene_2d)
    a = write_solution(scene_2d, solution, normalized.transform, L_EX1, None)
    normalized2, solution2 = _solved(scene_2d)
    b = write_solution(scene_2d, solution2, normalized2.transform, L_EX1, None)
    assert a == b


def test_solution_curve_reconstruction(scene_2d):
    normalized, solution = _solved(scene_2d)
    text = write_solution(scene_2d, solution, normalized.transform, L_EX1, None)
    curve = solution_curve_from_document(read_solution(text))
    assert curve.degree == 3
    np.testing.assert_allclose(curve.point(0.0), scene_2d.left.points[-1], atol=1e-10)
    np.testing.assert_allclose(curve.point(1.0), scene_2d.right.points[0], atol=1e-10)


def test_solution_curve_error_paths(scene_2d):
    normalized, solution = _solved(scene_2d)
    good = read_solution(write_solution(scene_2d, solution, normalized.transform, L_EX1, None))

    def corrupt(fn):
        doc = json.loads(json.dumps(good))
        fn(doc)
        return doc

    for fn, message in [
        (lambda d: d["solution"].update(knots=[0, 0, 0, "a", 1, 1, 1, 1]), "solution.knots invalid"),
        (lambda d: d["solution"].update(knots=None), "solution.knots invalid"),
        (lambda d: d["solution"].pop("knots"), "solution is missing required field 'knots'"),
        (lambda d: d["solution"].update(degree=True), "solution.degree must be an integer"),
        (lambda d: d["solution"].update(degree=3.0), "solution.degree must be an integer"),
        (lambda d: d.update(solution=[3, 1]), "solution must be an object"),
        (lambda d: d["original_points"][1].__setitem__(0, "x"), "array of numbers"),
        (lambda d: d["original_points"][1].append(0.0), "array of numbers"),
        (lambda d: d.update(original_points=[[0.0, 0.0, 0.0]] * 4), r"n x 2 array$"),
        (lambda d: d.update(dim=5), "dim must be 2 or 3, got 5$"),
        (lambda d: d.update(dim=2.0), "dim must be 2 or 3, got 2.0$"),
        (lambda d: d.update(dim=True), "dim must be 2 or 3, got True$"),
        (lambda d: d.pop("dim"), "missing required field 'dim'"),
    ]:
        with pytest.raises(FormatError, match=message):
            solution_curve_from_document(corrupt(fn))


def test_read_solution_rejects_scene_files(scene_2d):
    with pytest.raises(FormatError):
        read_solution(write_scene(SceneDocument(scene_2d, True, L_EX1)))
    with pytest.raises(FormatError):
        read_solution("{broken")


# ------------------------------------------------------------------- csv


def test_csv_round_trip(scene_2d):
    ts = np.linspace(0.0, 1.0, 7)
    samples = scene_2d.left.sample(7)
    text = write_csv(samples, ts)
    assert text.splitlines()[0] == "t,x,y"
    data = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], ts)
    np.testing.assert_array_equal(data[:, 1:], samples)


def test_csv_3d_header(scene_3d):
    text = write_csv(scene_3d.left.sample(3), np.linspace(0.0, 1.0, 3))
    assert text.splitlines()[0] == "t,x,y,z"
