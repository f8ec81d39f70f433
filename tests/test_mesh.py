import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

import sdflow.g17 as g17_module
import sdflow.mesh as mesh_module
from sdflow.cli import main
from sdflow.generators import (
    make_dumbbell,
    make_icosphere,
    make_perturbed_sphere,
    make_torus,
)
from sdflow.mesh import (
    MeshError,
    MeshReport,
    TriangleMesh,
    _content_lines,
    corner_sum,
    dumps_off,
    face_geometry,
    load_mesh_path,
    loads_obj,
    loads_off,
    rescale,
    save_off,
    validate,
)

TETRA_OFF = """OFF
4 4 0
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


def test_load_off_tetrahedron():
    mesh = loads_off(TETRA_OFF)
    assert mesh.num_vertices == 4
    assert mesh.num_faces == 4
    assert len(mesh.edges) == 6


def test_load_obj_quad_face_rejected():
    obj = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    with pytest.raises(MeshError, match="non-triangle"):
        loads_obj(obj)


def test_load_off_non_triangle_rejected():
    off = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    with pytest.raises(MeshError, match="non-triangle"):
        loads_off(off)


def test_load_off_icosahedron_roundtrip():
    ico = make_icosphere(1.0, 0)
    mesh = loads_off(dumps_off(ico))
    assert mesh.num_vertices == 12
    assert mesh.num_faces == 20
    assert validate(mesh).euler_characteristic == 2


def test_off_roundtrip_exact():
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1), (3, 1, 0.05)], subdivisions=2)
    back = loads_off(dumps_off(mesh))
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


def test_dumps_off_exact_bytes():
    # signed zero, a tiny normal number and a value that needs all 17 digits
    mesh = TriangleMesh(
        [[-0.0, 0.0, 0.0], [1.0, 1e-300, 0.0], [0.0, 1.0, 0.0], [0.1, 0.0, 1.0]],
        [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]],
    )
    assert dumps_off(mesh) == (
        "OFF\n4 4 0\n"
        "-0 0 0\n1 1e-300 0\n0 1 0\n0.10000000000000001 0 1\n"
        "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
    )


def reference_dumps_off(mesh):
    """The OFF writer as one expression: counts line, vertex block and face
    block formatted from the mesh's own arrays."""
    nv, nf = mesh.num_vertices, mesh.num_faces
    return (
        f"OFF\n{nv} {nf} 0\n"
        + ("%.17g %.17g %.17g\n" * nv) % tuple(mesh.vertices.ravel().tolist())
        + ("3 %d %d %d\n" * nf) % tuple(mesh.faces.ravel().tolist())
    )


def perturbed_codec_mesh():
    return make_perturbed_sphere(1.0, [(2, 0, 0.1), (3, 1, 0.05)], seed=4, subdivisions=2)


CODEC_MESHES = {
    "icosphere": lambda: make_icosphere(1.0, 2),
    "perturbed": perturbed_codec_mesh,
    "dumbbell": lambda: make_dumbbell(1.0, 0.15, 2.0),
    "with_vertices": lambda: (m := perturbed_codec_mesh()).with_vertices(m.vertices * 1.5 + 0.25),
    "rescaled": lambda: rescale(make_dumbbell(1.0, 0.15, 2.0), (0.1, -0.2, 0.3), 7.0),
}


@pytest.mark.parametrize("name", list(CODEC_MESHES))
def test_dumps_off_and_save_off_match_the_reference_writer(name, tmp_path):
    mesh = CODEC_MESHES[name]()
    want = reference_dumps_off(mesh)
    assert dumps_off(mesh) == want
    # save_off writes the face block dumps_off cached on the topology
    save_off(mesh, tmp_path / "m.off")
    assert (tmp_path / "m.off").read_bytes() == want.encode("ascii")


def vertex_block_mesh(values):
    """A mesh without faces whose coordinates are `values` in order, padded
    with 0.5 to whole vertices."""
    v = np.asarray(values, dtype=np.float64).ravel()
    v = np.concatenate([v, np.full(-len(v) % 3, 0.5)])
    return TriangleMesh(v.reshape(-1, 3), np.empty((0, 3), np.int64))


def assert_writes_the_reference(values):
    """dumps_off of vertex_block_mesh(values) is the reference writer's text;
    returns its coordinates as written.  A failure names the first line that
    differs (pytest's own diff of two long texts would take minutes)."""
    mesh = vertex_block_mesh(values)
    text, want = dumps_off(mesh), reference_dumps_off(mesh)
    same = text == want
    if not same:
        line = next(
            (g, w) for g, w in zip(text.splitlines(), want.splitlines()) if g != w
        )
    assert same, f"first line that differs, written and reference: {line}"
    return text.split("\n", 2)[2].split()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(width=64), max_size=30))
@example([5e-324, -5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308])
@example([1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf])
@example([0.0, -0.0, 1e-268, 1e268, 9.9999999999999997e-269, 9.9999999999999997e267])
def test_off_vertex_block_of_any_float_is_the_reference(values):
    assert_writes_the_reference(values)


# %.17g at the writer's edges: the decade and format switches, ties (half to
# even), integers near 2**53 and values that round up into the next decade
G17_TABLE = [
    (0.0, "0"),
    (-0.0, "-0"),
    (100.0, "100"),
    (-2.5, "-2.5"),
    (123.456, "123.456"),
    (0.1, "0.10000000000000001"),
    (0.3, "0.29999999999999999"),
    (4.35, "4.3499999999999996"),
    (1000000000000000.5, "1000000000000000.5"),
    (1234567890123456.75, "1234567890123456.8"),  # tie, up to even
    (1234567890123456.25, "1234567890123456.2"),  # tie, down to even
    (9007199254740991.0, "9007199254740991"),  # 2**53 - 1
    (9007199254740992.0, "9007199254740992"),
    (9007199254740994.0, "9007199254740994"),
    (1e16, "10000000000000000"),
    (12345678901234568.0, "12345678901234568"),  # k = 16: every digit whole
    (18014398509481984.0, "18014398509481984"),  # 2**54
    (9.9999999999999984e16, "99999999999999984"),
    (1e17, "1e+17"),
    (1.2345678901234568e17, "1.2345678901234568e+17"),  # k = 17: exponent
    (0.0001, "0.0001"),  # k = -4: still fixed
    (0.00012345, "0.00012344999999999999"),
    (1e-05, "1.0000000000000001e-05"),  # k = -5: exponent
    (1.2345e-05, "1.2345e-05"),
    (1e-14, "1e-14"),  # below 1e-14, rounds up into its decade
    (1e98, "1e+98"),  # below 1e98, the same
    (1e22, "1e+22"),
    (1e23, "9.9999999999999992e+22"),
    (1e-300, "1e-300"),
    (5e-324, "4.9406564584124654e-324"),
    (2.2250738585072014e-308, "2.2250738585072014e-308"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (math.nan, "nan"),
]


def test_off_vertex_block_at_the_writers_edges():
    values, want = zip(*G17_TABLE)
    assert assert_writes_the_reference(values)[: len(want)] == list(want)
    # every power of ten in float64 and its neighbours one ulp away
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    around = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    assert_writes_the_reference(np.concatenate([around, -around]))


def test_off_vertex_block_of_random_bit_patterns():
    bits = np.random.default_rng(35).integers(0, 2**64, 3 * 300_000, dtype=np.uint64)
    assert_writes_the_reference(bits.view(np.float64))


def test_off_vertex_block_of_an_empty_mesh():
    mesh = TriangleMesh(np.empty((0, 3)), np.empty((0, 3), np.int64))
    assert dumps_off(mesh) == reference_dumps_off(mesh) == "OFF\n0 0 0\n"


# the numpy pass leaves only a non-finite value, a magnitude outside its
# exponent table or a near-tie to Python's %, one value at a time
def test_off_vertex_block_formats_only_the_undecided_values_alone(monkeypatch):
    alone = []
    exact = g17_module._exact
    monkeypatch.setattr(g17_module, "_exact", lambda v: alone.append(v) or exact(v))
    undecided = [math.nan, math.inf, -math.inf, 1234567890123456.75, 5e-324, 1e-300, 1e300]
    decided = [0.0, -0.0, 1e-14, 1e98, 0.1, 1e16, 1e17, 1e-05, 123.456, -1e-268]
    coords = perturbed_codec_mesh().vertices.ravel().tolist()
    assert_writes_the_reference(decided + undecided + coords)
    assert [repr(v) for v in alone] == [repr(v) for v in undecided]


@pytest.mark.parametrize("name", list(CODEC_MESHES))
def test_loads_off_like_reuses_the_faces_bit_for_bit(name):
    like = CODEC_MESHES[name]()
    text = dumps_off(like.with_vertices(np.sin(7.0 * like.vertices) + 1e-300))
    full = loads_off(text)
    fast = loads_off(text, like=like)
    assert np.array_equal(fast.vertices.view(np.int64), full.vertices.view(np.int64))
    assert np.array_equal(fast.faces, full.faces)
    assert fast.faces is like.faces and fast.topology is like.topology


class SplitCounter(str):
    """A str that counts its splitlines calls."""

    splits = 0

    def splitlines(self, keepends=False):
        self.splits += 1
        return super().splitlines(keepends)


def test_loads_off_like_splits_and_parses_no_face_line(monkeypatch):
    like = make_icosphere(1.0, 2)
    text = dumps_off(like.with_vertices(like.vertices * 2.0))
    block = SplitCounter(like.topology.off_faces)
    like.topology.__dict__["off_faces"] = block
    reads, read_block = [], mesh_module._read_block
    monkeypatch.setattr(
        mesh_module, "_read_block", lambda *args: reads.append(args[1]) or read_block(*args)
    )
    got = loads_off(text, like=like)
    assert got.faces is like.faces and got.topology is like.topology
    assert reads == [np.float64] and block.splits == 0


def edit_line(text, index, line):
    lines = text.splitlines(keepends=True)
    lines[index] = line
    return "".join(lines)


def crlf_from(text, index):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:index] + [ln.replace("\n", "\r\n") for ln in lines[index:]])


# OFF texts, each made from the canonical text of `like` (icosphere s1:
# 42 vertices, lines 2..43, then 80 faces), that are not save_off's layout:
# each is parsed in full, even where its faces equal like's
OFF_FALLBACKS = {
    "comment_in_face_block": lambda t: t[:-1] + " # last face\n",
    "blank_line_in_face_block": lambda t: edit_line(t, 50, "\n" + t.splitlines(True)[50]),
    "crlf_face_block": lambda t: crlf_from(t, 44),
    "crlf_everywhere": lambda t: crlf_from(t, 0),
    "one_face_changed": lambda t: edit_line(t, 44, "3 0 1 2\n"),
    "faces_reversed": lambda t: edit_line(
        t, 44, "3 %s %s %s\n" % tuple(t.splitlines()[44].split()[:0:-1])
    ),
    "counts_one_more_vertex": lambda t: edit_line(t, 1, "43 80 0\n"),
    "counts_one_less_face": lambda t: edit_line(t, 1, "42 79 0\n"),
    "counts_with_word": lambda t: edit_line(t, 1, "42 80 edges\n"),
    "missing_header": lambda t: edit_line(t, 0, "PLY\n"),
    "vertex_block_truncated": lambda t: edit_line(t, 10, ""),
    "vertex_block_malformed": lambda t: edit_line(t, 10, "0 x 0\n"),
    "vertex_block_short_row": lambda t: edit_line(t, 10, "0 0\n"),
    "vertex_block_overlong": lambda t: edit_line(t, 10, "0 0 0\n" + t.splitlines(True)[10]),
    "vertex_block_then_content": lambda t: edit_line(t, 43, t.splitlines(True)[43] + "garbage\n"),
    "content_after_faces": lambda t: t + "trailing content\n",
    "face_block_without_final_newline": lambda t: t[:-1],
    "face_block_only": lambda t: t[t.index("\n3 ") + 1 :],
    "last_vertex_joined_to_faces": lambda t: t.replace("\n3 ", "3 ", 1),
    # like's face block ends the text, but the counts or the header run into it
    "counts_more_vertices_fewer_faces": lambda t: edit_line(t, 1, "43 79 0\n"),
    "header_then_face_block": lambda t: "OFF\n" + t[t.index("\n3 ") + 1 :],
    "comment_then_face_block": lambda t: "# no header\n" + t[t.index("\n3 ") + 1 :],
}


@pytest.mark.parametrize("name", list(OFF_FALLBACKS))
def test_loads_off_like_falls_back_to_the_full_parse(name):
    like = make_icosphere(1.0, 1)
    canonical = dumps_off(like.with_vertices(like.vertices * 0.5))
    text = OFF_FALLBACKS[name](canonical)
    assert text != canonical
    try:
        want = loads_off(text)
    except MeshError as exc:
        with pytest.raises(MeshError) as got:
            loads_off(text, like=like)
        assert str(got.value) == str(exc)
    else:
        got = loads_off(text, like=like)
        assert_same_mesh_bits(got, want)
        assert got.faces is not like.faces and got.topology is not like.topology


def test_load_mesh_path_like_names_the_file(tmp_path):
    like = make_icosphere(1.0, 1)
    path = tmp_path / "step.off"
    save_off(like, path)
    assert load_mesh_path(path, like=like).topology is like.topology
    path.write_text(edit_line(dumps_off(like), 10, "0 x 0\n"))
    with pytest.raises(MeshError) as got:
        load_mesh_path(path, like=like)
    assert str(got.value) == f"{path}: malformed OFF vertex line"


def test_load_obj_with_attribute_indices():
    obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n"
    mesh = loads_obj(obj)
    assert mesh.num_faces == 1
    assert list(mesh.faces[0]) == [0, 1, 2]


@pytest.mark.parametrize(
    "face", ["f 0 1 2", "f 1 2 9", "f 1 2 99999999999999999999", "f -99999999999999999999 1 2"]
)
def test_load_obj_out_of_range_index(face):
    obj = f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\n"
    with pytest.raises(MeshError, match="face index out of range"):
        loads_obj(obj)


def test_load_obj_relative_indices():
    # a negative index counts back from the last vertex read so far
    mesh = loads_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_load_obj_mixed_relative_and_absolute_indices():
    obj = (
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 -2 -1\n"
        "v 0 0 1\nf 1/1 -3/2 -1/3\nf -1 2 3\n"
    )
    assert loads_obj(obj).faces.tolist() == [[0, 1, 2], [0, 1, 3], [3, 1, 2]]


def test_load_obj_relative_index_before_enough_vertices():
    # -3 counts back from the vertices read so far: after two it points
    # before the first one, after three it is the first
    with pytest.raises(MeshError, match="face index out of range"):
        loads_obj("v 0 0 0\nv 1 0 0\nf -2 -1 -3\nv 0 1 0\n")
    assert loads_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -2 -1 -3\n").faces.tolist() == [[1, 2, 0]]


@pytest.mark.parametrize("line", ["v 1 0", "v", "v 1 0 x"])
def test_load_obj_malformed_vertex_line(line):
    obj = f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{line}\nf 1 2 3\n"
    with pytest.raises(MeshError, match="malformed OBJ vertex line"):
        loads_obj(obj)


@pytest.mark.parametrize("name", ["tetra.obj", "TETRA.OBJ", "tetra.off", "tetra"])
def test_load_mesh_path_reader_from_file_name(tmp_path, name):
    tetra = loads_off(TETRA_OFF)
    if name.lower().endswith(".obj"):
        text = "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in tetra.vertices.tolist())
        text += "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in tetra.faces.tolist())
    else:
        text = TETRA_OFF
    (tmp_path / name).write_text(text)
    mesh = load_mesh_path(tmp_path / name)
    assert np.array_equal(mesh.vertices, tetra.vertices)
    assert np.array_equal(mesh.faces, tetra.faces)


def test_load_off_out_of_range_index():
    off = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n"
    with pytest.raises(MeshError):
        loads_off(off)


def test_load_off_malformed_counts():
    with pytest.raises(MeshError):
        loads_off("OFF\nnot a count line\n")


def test_repeated_vertex_in_face_rejected():
    with pytest.raises(MeshError, match="repeated"):
        TriangleMesh(np.eye(3), [[0, 1, 1]])


def test_faces_not_m_by_3_rejected():
    with pytest.raises(MeshError) as got:
        TriangleMesh(np.eye(4)[:, :3], [[0, 1, 2, 3], [0, 2, 3, 1]])
    assert str(got.value) == "faces must be an (m, 3) array"


def test_validate_icosphere():
    rep = validate(make_icosphere(1.0, 2))
    assert rep.is_closed and rep.is_oriented
    assert rep.euler_characteristic == 2
    assert rep.genus == 0
    assert rep.min_face_area > 0
    assert 0 < rep.aspect_quality <= 1


def test_validate_torus():
    rep = validate(make_torus(2.0, 0.5))
    assert rep.is_closed and rep.is_oriented
    assert rep.euler_characteristic == 0
    assert rep.genus == 1


def test_validate_open_mesh():
    tetra = loads_off(TETRA_OFF)
    opened = TriangleMesh(tetra.vertices, tetra.faces[:-1])
    rep = validate(opened)
    assert not rep.is_closed


def test_validate_duplicate_face_not_oriented():
    tetra = loads_off(TETRA_OFF)
    doubled = TriangleMesh(tetra.vertices, np.vstack([tetra.faces, tetra.faces[:1]]))
    assert not validate(doubled).is_oriented


def reference_validate(mesh):
    """validate with the edges counted by np.unique over the half-edges, the
    form validate had before it read the counts from MeshTopology."""
    he = mesh.half_edges
    und, counts = np.unique(np.sort(he, axis=1), axis=0, return_counts=True)
    _, dir_counts = np.unique(he, axis=0, return_counts=True)
    is_oriented = bool((dir_counts == 1).all())
    is_closed = bool((counts == 2).all() and (dir_counts == 1).all())
    if len(np.unique(np.sort(mesh.faces, axis=1), axis=0)) != mesh.num_faces:
        is_oriented = False
    chi = mesh.num_vertices - len(und) + mesh.num_faces
    on_faces = np.unique(mesh.faces)
    n = mesh.num_vertices
    graph = sparse.coo_matrix((np.ones(len(und)), (und[:, 0], und[:, 1])), shape=(n, n))
    k = connected_components(graph, directed=False)[0] - (n - len(on_faces))
    chi_f = len(on_faces) - len(und) + mesh.num_faces
    genus = (2 * k - chi_f) // 2 if (is_closed and is_oriented and mesh.num_faces) else -1
    fg = face_geometry(mesh)
    empty = mesh.num_faces == 0
    return MeshReport(
        is_closed=is_closed,
        is_oriented=is_oriented,
        euler_characteristic=int(chi),
        genus=int(genus),
        min_face_area=0.0 if empty else float(fg.areas.min()),
        min_edge_length=0.0 if empty else fg.h_min,
        max_edge_length=0.0 if empty else fg.h_max,
        aspect_quality=0.0 if empty else fg.quality,
    )


def tetra_with(faces=None, extra_vertices=()):
    tetra = loads_off(TETRA_OFF)
    vertices = np.vstack([tetra.vertices, np.reshape(extra_vertices, (-1, 3))])
    return TriangleMesh(vertices, tetra.faces if faces is None else faces(tetra.faces))


def two_disjoint_spheres():
    a = make_icosphere(1.0, 1)
    return TriangleMesh(
        np.vstack([a.vertices, a.vertices + 3.0]), np.vstack([a.faces, a.faces + a.num_vertices])
    )


def one_flipped_face(f):
    f = f.copy()
    f[0] = f[0, ::-1]
    return f


@pytest.mark.parametrize(
    "mesh_fn",
    [
        pytest.param(lambda: make_icosphere(1.0, 0), id="icosphere_s0"),
        pytest.param(lambda: make_icosphere(1.0, 2), id="icosphere_s2"),
        pytest.param(lambda: make_torus(2.0, 0.5), id="torus"),
        pytest.param(lambda: make_dumbbell(1.0, 0.15, 2.0), id="dumbbell"),
        pytest.param(lambda: tetra_with(lambda f: f[:-1]), id="open"),
        pytest.param(lambda: tetra_with(lambda f: np.vstack([f, f[:1]])), id="duplicated_face"),
        pytest.param(
            lambda: tetra_with(lambda f: np.vstack([f, f[:1, ::-1]])),
            id="duplicated_reversed_face",
        ),
        pytest.param(lambda: tetra_with(one_flipped_face), id="one_flipped_face"),
        pytest.param(lambda: TriangleMesh(np.eye(3), [[0, 1, 2]]), id="single_triangle"),
        pytest.param(
            lambda: TriangleMesh(np.empty((0, 3)), np.empty((0, 3), np.int64)), id="empty"
        ),
        pytest.param(lambda: tetra_with(extra_vertices=(2.0, 2.0, 2.0)), id="isolated_vertex"),
        pytest.param(two_disjoint_spheres, id="two_disjoint_spheres"),
        # edge (0, 1) lies on the faces 0 2 1, 0 1 3 and 0 1 4
        pytest.param(
            lambda: tetra_with(lambda f: np.vstack([f, [[0, 1, 4]]]), (1.0, -1.0, 0.0)),
            id="edge_on_three_faces",
        ),
    ],
)
def test_validate_matches_unique_edge_reference(mesh_fn):
    mesh = mesh_fn()
    assert validate(mesh) == reference_validate(mesh)


def test_validate_genus_sums_over_components():
    cases = [
        (two_disjoint_spheres(), 0),
        (TriangleMesh(np.empty((0, 3)), np.empty((0, 3), np.int64)), -1),
        (tetra_with(extra_vertices=(2.0, 2.0, 2.0)), 0),
        (make_torus(2.0, 0.5), 1),
        (make_icosphere(1.0, 0), 0),
        (make_icosphere(1.0, 2), 0),
    ]
    assert [validate(mesh).genus for mesh, _ in cases] == [genus for _, genus in cases]


def test_rescale_identity():
    mesh = make_icosphere(1.0, 1)
    out = rescale(mesh, (0.0, 0.0, 0.0), 1.0)
    assert np.array_equal(out.vertices, mesh.vertices)


def test_rescale_sphere_radius():
    mesh = make_icosphere(1.0, 2)
    out = rescale(mesh, (0.0, 0.0, 0.0), 0.25)
    assert np.allclose(np.linalg.norm(out.vertices, axis=1), 0.25, atol=1e-14)


def test_rescale_roundtrip():
    mesh = make_perturbed_sphere(1.0, [(2, 1, 0.1)], subdivisions=2)
    center = np.array([0.3, -0.2, 0.5])
    fwd = rescale(mesh, center, 3.0)
    back = rescale(fwd, -center * 3.0, 1.0 / 3.0)
    assert np.abs(back.vertices - mesh.vertices).max() < 1e-12


def test_with_vertices_shares_faces_and_topology():
    mesh = make_icosphere(1.0, 1)
    moved = mesh.with_vertices(mesh.vertices * 2.0)
    assert moved.faces is mesh.faces
    assert moved.topology is mesh.topology
    assert np.array_equal(moved.vertices, mesh.vertices * 2.0)
    assert not moved.vertices.flags.writeable
    assert moved.vertices.dtype == np.float64 and moved.vertices.flags.c_contiguous


@pytest.mark.parametrize("shape", [(42, 2), (42, 4), (41, 3), (43, 3), (126,)])
def test_with_vertices_rejects_wrong_shape(shape):
    mesh = make_icosphere(1.0, 1)
    assert mesh.num_vertices == 42
    with pytest.raises(MeshError):
        mesh.with_vertices(np.zeros(shape))


def test_rescale_rejects_nonpositive_factor():
    mesh = make_icosphere(1.0, 0)
    with pytest.raises(ValueError):
        rescale(mesh, (0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        rescale(mesh, (0, 0, 0), -2.0)


def test_degenerate_face_detection():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1e-15, 0], [0.5, 1.0, 1.0]])
    mesh = TriangleMesh(verts, [[0, 1, 2], [0, 2, 3], [1, 3, 2], [0, 3, 1]])
    assert face_geometry(mesh).degenerate
    assert not face_geometry(make_icosphere(1.0, 1)).degenerate


def test_face_geometry_scalars_without_faces():
    fg = face_geometry(TriangleMesh(np.empty((0, 3)), np.empty((0, 3), np.int64)))
    scalars = (fg.total_area, fg.h_min, fg.h_max, fg.quality, fg.degenerate)
    assert scalars == (0.0, 0.0, 0.0, 0.0, False)
    assert [type(x) for x in scalars] == [float] * 4 + [bool]


def test_corner_sum_equals_three_add_at_passes():
    mesh = make_perturbed_sphere(1.0, [(2, 1, 0.2)], seed=1, subdivisions=2)
    values = np.random.default_rng(0).standard_normal((3, mesh.num_faces))
    expected = np.zeros(mesh.num_vertices)
    for k in range(3):
        np.add.at(expected, mesh.faces[:, k], values[k])
    got = corner_sum(mesh, values)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_corner_index_is_the_read_only_transposed_faces():
    mesh = make_perturbed_sphere(1.0, [(2, 1, 0.2)], seed=1, subdivisions=2)
    index = mesh.topology.corner_index
    assert np.array_equal(index, mesh.faces.T)
    assert index.flags.c_contiguous and not index.flags.writeable
    assert index.dtype == np.intp
    assert mesh.with_vertices(mesh.vertices * 2.0).topology.corner_index is index


def reference_loads_off(text):
    """The OFF reader in its plain form: float() and int() on every token
    of every line, one line at a time."""
    lines = list(_content_lines(text.splitlines()))
    if not lines:
        raise MeshError("empty OFF file")
    if lines[0].upper() != "OFF":
        raise MeshError("missing OFF header")
    try:
        counts = [int(tok) for tok in lines[1].split()]
        nv, nf = counts[0], counts[1]
    except (IndexError, ValueError) as exc:
        raise MeshError("malformed OFF counts line") from exc
    body = lines[2:]
    if len(body) < nv + nf:
        raise MeshError("truncated OFF file")
    try:
        vertices = np.array(
            [[float(t) for t in body[i].split()[:3]] for i in range(nv)]
        )
    except ValueError as exc:
        raise MeshError("malformed OFF vertex line") from exc
    faces = []
    for i in range(nv, nv + nf):
        toks = body[i].split()
        try:
            k = int(toks[0])
            idx = [int(t) for t in toks[1 : 1 + k]]
        except (IndexError, ValueError) as exc:
            raise MeshError("malformed OFF face line") from exc
        if k != 3 or len(idx) != 3:
            raise MeshError("non-triangle face")
        faces.append(idx)
    try:
        faces = np.array(faces, dtype=np.int64)
    except OverflowError as exc:
        raise MeshError("face index out of range") from exc
    return TriangleMesh(vertices, faces.reshape(-1, 3))


def assert_same_mesh_bits(got, want):
    assert np.array_equal(got.vertices.view(np.int64), want.vertices.view(np.int64))
    assert got.faces.dtype == want.faces.dtype
    assert np.array_equal(got.faces, want.faces)


def two_step_snapshot(tmp_path):
    cfg = tmp_path / "two.cfg"
    cfg.write_text(
        "initial.kind = perturbed_sphere\ninitial.subdiv = 2\n"
        "initial.modes = 2,0,0.1\nsolver.scheme = explicit\n"
        "solver.max_steps = 2\nsolver.snapshot_every = 1\n"
        f"output.dir = {tmp_path / 'run'}\n"
    )
    assert main(["run", str(cfg)]) == 0
    return (tmp_path / "run" / "step_00000002.off").read_text()


@pytest.mark.parametrize("source", ["icosphere", "perturbed", "dumbbell", "snapshot"])
def test_loads_off_matches_per_line_reference_bitwise(source, tmp_path):
    text = {
        "icosphere": lambda: dumps_off(make_icosphere(1.0, 3)),
        "perturbed": lambda: dumps_off(
            make_perturbed_sphere(1.0, [(2, 0, 0.1), (3, 1, 0.05)], subdivisions=3)
        ),
        "dumbbell": lambda: dumps_off(make_dumbbell(1.0, 0.15, 2.0)),
        "snapshot": lambda: two_step_snapshot(tmp_path),
    }[source]()
    assert_same_mesh_bits(loads_off(text), reference_loads_off(text))


TRI = "0 0 0\n1 0 0\n0 1 0\n"


@pytest.mark.parametrize(
    "text",
    [
        "OFF # header comment\n3 1 0 # counts\n" + TRI + "3 0 1 2 # face\n",
        "# leading comment\n\nOFF\n\n# alone\n3 1 0\n" + TRI + "\n3 0 1 2\n\n",
        ("OFF\n3 1 0\n" + TRI + "3 0 1 2\n").replace("\n", "\r\n"),
        "OFF\n3 1\n" + TRI + "3 0 1 2\n",
        "off\n3 1 0\n\t0  0 0\n1\t0 0\n0 1 0   \n3 0 1 2\n",
        "OFF\n3 1 0\n0 0 0 255 0 0\n1 0 0 0 255 0\n0 1 0\n3 0 1 2 0.5 0.5 0.5\n",
        "OFF\n3 1 0\n" + TRI + "3 0 1 2\ntrailing content\n",
        "OFF\n3 1 0\n+0 -0 0.\n1e0 .0 0\n0 +1 0\n+3 0 1 +2\n",
    ],
    ids=[
        "header_comment",
        "blank_and_comment_lines",
        "crlf",
        "counts_without_edges",
        "tabs_and_spaces",
        "colors",
        "content_after_body",
        "signs_and_short_floats",
    ],
)
def test_loads_off_accepted_layouts(text):
    mesh = loads_off(text)
    assert mesh.faces.tolist() == [[0, 1, 2]]
    assert np.array_equal(np.abs(mesh.vertices), [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert_same_mesh_bits(mesh, reference_loads_off(text))


def test_loads_off_special_floats_bitwise():
    values = ["nan", "inf", "-inf", "-0", "1e-300", "5e-324", "-5e-324",
              "1.7976931348623157e308", "2.2250738585072014e-308",
              "0.10000000000000001", "NaN", "Infinity", "1e400"]
    values += ["0"] * (-len(values) % 3)
    rows = [" ".join(values[i : i + 3]) for i in range(0, len(values), 3)]
    nv = len(rows)
    text = f"OFF\n{nv} 1 0\n" + "\n".join(rows) + "\n3 0 1 2\n"
    mesh = loads_off(text)
    want = np.array([float(v) for v in values]).reshape(-1, 3)
    assert np.array_equal(mesh.vertices.view(np.int64), want.view(np.int64))
    assert_same_mesh_bits(mesh, reference_loads_off(text))
    assert_same_mesh_bits(loads_off(dumps_off(mesh)), mesh)
    assert np.signbit(mesh.vertices[1, 0])  # "-0"
    assert mesh.vertices[1, 2] == 5e-324


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty OFF file"),
        ("# only a comment\n\n", "empty OFF file"),
        ("PLY\n3 1 0\n", "missing OFF header"),
        ("OFF 3 1 0\n" + TRI + "3 0 1 2\n", "missing OFF header"),
        ("OFF\n", "malformed OFF counts line"),
        ("OFF\n3\n", "malformed OFF counts line"),
        ("OFF\nthree 1 0\n", "malformed OFF counts line"),
        ("OFF\n3 1 0\n" + TRI, "truncated OFF file"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n3 0 1 2\n", "truncated OFF file"),
        # truncation is checked before the malformed vertex line is read
        ("OFF\n3 2 0\n0 0 0\n1 x 0\n0 1 0\n3 0 1 2\n", "truncated OFF file"),
        # counts beyond a C long, which np.loadtxt's max_rows cannot take
        ("OFF\n99999999999999999999 1 0\n", "truncated OFF file"),
        ("OFF\n4 99999999999999999999 0\n" + TRI + "0 0 1\n3 0 1 2\n", "truncated OFF file"),
        ("OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", "malformed OFF vertex line"),
        ("OFF\n3 1 0\n0 0 0\n1 x 0\n0 1 0\n3 0 1 2\n", "malformed OFF vertex line"),
        ("OFF\n3 1 0\n0 0 0\n0x1p0 0 0\n0 1 0\n3 0 1 2\n", "malformed OFF vertex line"),
        ("OFF\n3 1 0\n" + TRI + "3 0 1\n", "non-triangle face"),
        ("OFF\n3 1 0\n" + TRI + "3\n", "non-triangle face"),
        ("OFF\n3 1 0\n" + TRI + "4 0 1\n", "non-triangle face"),
        ("OFF\n3 1 0\n" + TRI + "4 0 1 2 1\n", "non-triangle face"),
        ("OFF\n3 1 0\n" + TRI + "2 0 1 2\n", "non-triangle face"),
        ("OFF\n3 2 0\n" + TRI + "4 0 1 2 1\n3 0 1 x\n", "non-triangle face"),
        ("OFF\n3 1 0\n" + TRI + "3 0 1 x\n", "malformed OFF face line"),
        ("OFF\n3 1 0\n" + TRI + "x 0 1 2\n", "malformed OFF face line"),
        ("OFF\n3 1 0\n" + TRI + "3 0 1 2.0\n", "malformed OFF face line"),
        ("OFF\n3 1 0\n" + TRI + "3 0 x\n", "malformed OFF face line"),
        ("OFF\n3 2 0\n" + TRI + "3 0 1 x\n3 0 1\n", "malformed OFF face line"),
        ("OFF\n3 1 0\n" + TRI + "3 0 1 3\n", "face index out of range"),
        ("OFF\n3 1 0\n" + TRI + "3 0 -1 2\n", "face index out of range"),
        ("OFF\n3 1 0\n" + TRI + "3 0 1 99999999999999999999\n", "face index out of range"),
        ("OFF\n3 1 0\n" + TRI + "3 0 1 -99999999999999999999\n", "face index out of range"),
        # the per-line reader reads every line before it converts the indices
        (
            "OFF\n3 2 0\n" + TRI + "3 0 1 99999999999999999999\n3 0 1 x\n",
            "malformed OFF face line",
        ),
    ],
    ids=[
        "empty",
        "comments_only",
        "wrong_header",
        "header_with_counts",
        "no_counts",
        "one_count",
        "word_count",
        "missing_face",
        "missing_vertex",
        "truncated_before_malformed_vertex",
        "huge_vertex_count",
        "huge_face_count",
        "short_vertex",
        "word_vertex",
        "hex_vertex",
        "short_face",
        "count_only_face",
        "quad_count_short_face",
        "quad_face",
        "edge_face",
        "non_triangle_before_malformed",
        "word_face",
        "word_count_face",
        "float_face",
        "short_face_with_word",
        "malformed_before_short",
        "index_too_large",
        "negative_index",
        "index_beyond_int64",
        "negative_index_beyond_int64",
        "index_beyond_int64_before_malformed",
    ],
)
def test_loads_off_malformed_messages(text, message):
    with pytest.raises(MeshError) as got:
        loads_off(text)
    assert str(got.value) == message
    with pytest.raises(MeshError) as want:
        reference_loads_off(text)
    assert str(want.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        # float("1_0") is 10 and float("\u0661") is 1; numpy reads neither
        ("OFF\n3 1 0\n0 0 0\n1_0 0 0\n0 1 0\n3 0 1 2\n", "malformed OFF vertex line"),
        ("OFF\n3 1 0\n" + TRI + "3 0 1_0 2\n", "malformed OFF face line"),
        ("OFF\n3 1 0\n0 0 0\n\u0661 0 0\n0 1 0\n3 0 1 2\n", "malformed OFF vertex line"),
        # the per-line reader read no vertices and failed on the array shape
        ("OFF\n-1 1 0\n" + TRI + "3 0 1 2\n", "malformed OFF counts line"),
    ],
    ids=["underscore_vertex", "underscore_face", "arabic_digit", "negative_count"],
)
def test_loads_off_messages_that_differ_from_the_per_line_reader(text, message):
    with pytest.raises(MeshError) as got:
        loads_off(text)
    assert str(got.value) == message
