import numpy as np
import pytest

from sdflow.generators import make_icosphere, make_perturbed_sphere, make_torus
from sdflow.mesh import (
    MeshError,
    TriangleMesh,
    corner_sum,
    dumps_off,
    face_geometry,
    load_mesh,
    loads_obj,
    rescale,
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
    mesh = load_mesh(TETRA_OFF.encode(), "off")
    assert mesh.num_vertices == 4
    assert mesh.num_faces == 4
    assert len(mesh.edges) == 6


def test_load_obj_quad_face_rejected():
    obj = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    with pytest.raises(MeshError, match="non-triangle"):
        load_mesh(obj.encode(), "obj")


def test_load_off_non_triangle_rejected():
    off = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    with pytest.raises(MeshError, match="non-triangle"):
        load_mesh(off, "off")


def test_load_off_icosahedron_roundtrip():
    ico = make_icosphere(1.0, 0)
    mesh = load_mesh(dumps_off(ico), "off")
    assert mesh.num_vertices == 12
    assert mesh.num_faces == 20
    assert validate(mesh).euler_characteristic == 2


def test_off_roundtrip_exact():
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1), (3, 1, 0.05)], subdivisions=2)
    back = load_mesh(dumps_off(mesh), "off")
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


def test_load_obj_with_attribute_indices():
    obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n"
    mesh = loads_obj(obj)
    assert mesh.num_faces == 1
    assert list(mesh.faces[0]) == [0, 1, 2]


def test_load_off_out_of_range_index():
    off = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n"
    with pytest.raises(MeshError):
        load_mesh(off, "off")


def test_load_off_malformed_counts():
    with pytest.raises(MeshError):
        load_mesh("OFF\nnot a count line\n", "off")


def test_repeated_vertex_in_face_rejected():
    with pytest.raises(MeshError, match="repeated"):
        TriangleMesh(np.eye(3), [[0, 1, 1]])


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
    tetra = load_mesh(TETRA_OFF, "off")
    opened = TriangleMesh(tetra.vertices, tetra.faces[:-1])
    rep = validate(opened)
    assert not rep.is_closed


def test_validate_duplicate_face_not_oriented():
    tetra = load_mesh(TETRA_OFF, "off")
    doubled = TriangleMesh(tetra.vertices, np.vstack([tetra.faces, tetra.faces[:1]]))
    assert not validate(doubled).is_oriented


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


@pytest.mark.parametrize("shape", [(), (3,)])
def test_corner_sum_equals_three_add_at_passes(shape):
    mesh = make_perturbed_sphere(1.0, [(2, 1, 0.2)], seed=1, subdivisions=2)
    values = np.random.default_rng(0).standard_normal((3, mesh.num_faces) + shape)
    expected = np.zeros((mesh.num_vertices,) + shape)
    for k in range(3):
        np.add.at(expected, mesh.faces[:, k], values[k])
    got = corner_sum(mesh, values)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
