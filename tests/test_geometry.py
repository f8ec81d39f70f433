import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from sdflow.flow import FlowState, _curvature_scale_trigger, step_explicit
from sdflow.generators import (
    make_dumbbell,
    make_icosphere,
    make_perturbed_sphere,
    make_torus,
)
from sdflow.geometry import (
    cotan_laplacian,
    curvature_field,
    enclosed_volume,
    integrate,
    lumped_mass,
    vertex_normals_and_projected_areas,
    volume_cubic,
)
from sdflow.mesh import MeshError, TriangleMesh, face_geometry, rescale, validate


def regular_tetrahedron(edge):
    s = edge / (2.0 * math.sqrt(2.0))
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float) * s
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    mesh = TriangleMesh(verts, faces)
    if enclosed_volume(face_geometry(mesh)) < 0:
        mesh = TriangleMesh(verts, faces[:, [0, 2, 1]])
    return mesh


def unit_cube():
    verts = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    quads = [
        (0, 3, 2, 1),  # bottom, outward -z
        (4, 5, 6, 7),  # top, outward +z
        (0, 1, 5, 4),
        (1, 2, 6, 5),
        (2, 3, 7, 6),
        (3, 0, 4, 7),
    ]
    faces = []
    for a, b, c, d in quads:
        faces.append([a, b, c])
        faces.append([a, c, d])
    return TriangleMesh(verts, np.array(faces))


def make_slab(n=10, thickness=0.1):
    """Closed thin slab: two triangulated unit-square sheets plus side walls."""
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    sheet = np.column_stack([gx.ravel(), gy.ravel(), np.zeros((n + 1) ** 2)])
    top = sheet + [0.0, 0.0, thickness]
    verts = np.vstack([top, sheet])
    off = (n + 1) ** 2

    def t(i, j):
        return i * (n + 1) + j

    faces = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = t(i, j), t(i + 1, j), t(i + 1, j + 1), t(i, j + 1)
            faces += [[a, b, c], [a, c, d]]  # top, outward +z
            faces += [[off + a, off + c, off + b], [off + a, off + d, off + c]]
    top_faces = [f for f in faces if max(f) < off]
    directed = set()
    for a, b, c in top_faces:
        directed |= {(a, b), (b, c), (c, a)}
    for (u, v) in list(directed):
        if (v, u) not in directed:  # boundary edge of the top sheet
            faces += [[v, u, off + u], [v, off + u, off + v]]
    return TriangleMesh(verts, np.array(faces))


def test_lumped_mass_regular_tetrahedron():
    edge = 1.3
    mesh = regular_tetrahedron(edge)
    fg = face_geometry(mesh)
    area = math.sqrt(3.0) * edge**2
    assert np.allclose(lumped_mass(fg), area / 4.0, rtol=1e-12)
    assert fg.total_area == pytest.approx(area, rel=1e-12)


@pytest.mark.parametrize(
    "mesh_fn",
    [
        lambda: make_icosphere(1.0, 2),
        lambda: make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=2),
        lambda: make_dumbbell(1.0, 0.3, 1.0, n_phi=16, n_rings=24),
        lambda: make_torus(2.0, 0.5, 24, 12),
    ],
)
def test_mass_partitions_area(mesh_fn):
    fg = face_geometry(mesh_fn())
    mass = lumped_mass(fg)
    assert (mass > 0).all()
    assert np.sum(mass) == pytest.approx(fg.total_area, rel=1e-12)


def test_icosphere_area_near_sphere():
    fg = face_geometry(make_icosphere(1.0, 4))
    assert fg.total_area == pytest.approx(4 * math.pi, rel=5e-3)


def test_laplacian_kills_constants():
    lap = cotan_laplacian(face_geometry(make_icosphere(1.0, 3)))
    u = np.full(lap.shape[0], 3.7)
    assert np.abs(lap @ u).max() < 1e-10


def test_laplacian_psd_random_vectors():
    lap = cotan_laplacian(face_geometry(make_icosphere(1.0, 3)))
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.standard_normal(lap.shape[0])
        assert u @ (lap @ u) >= -1e-10


@pytest.mark.parametrize("seed", range(50))
def test_laplacian_psd_zero_rowsum_random_meshes(seed):
    l = 2 + seed % 3
    mesh = make_perturbed_sphere(
        1.0, [(l, seed % (l + 1), 0.35)], seed=seed, subdivisions=1
    )
    lap = cotan_laplacian(face_geometry(mesh))
    asym = (lap - lap.T).tocoo()
    assert np.abs(asym.data).max() if asym.nnz else 0.0 < 1e-12
    assert np.abs(np.asarray(lap.sum(axis=1))).max() < 1e-11
    evals = np.linalg.eigvalsh(lap.toarray())
    assert evals.min() > -1e-10


def test_laplacian_linear_functions_harmonic_on_flat_patch():
    slab = make_slab(n=10, thickness=0.05)
    assert validate(slab).is_closed
    lap = cotan_laplacian(face_geometry(slab))
    u = slab.vertices[:, 0]
    residual = lap @ u
    n = 10
    interior = [i * (n + 1) + j for i in range(2, n - 1) for j in range(2, n - 1)]
    assert np.abs(residual[interior]).max() < 1e-10


def reference_operators(fg):
    """Mass, vertex normals, projected areas, angle defects, L and the
    enclosed volume in their plain forms: one np.add.at / np.subtract.at
    pass per corner, L built as off + diags(-row sums) after a COO -> CSR
    conversion, and the volume from three strided corner gathers."""
    f, n, areas = fg.mesh.faces, fg.mesh.num_vertices, fg.areas
    cot_a, cot_b, cot_c = fg.cot
    l_ab, l_bc, l_ca = fg.sq_lengths
    w_a = (l_ab * cot_c + l_ca * cot_b) / 8.0
    w_b = (l_ab * cot_c + l_bc * cot_a) / 8.0
    w_c = (l_ca * cot_b + l_bc * cot_a) / 8.0
    obtuse = (cot_a < 0) | (cot_b < 0) | (cot_c < 0)
    w_a = np.where(obtuse, np.where(cot_a < 0, areas / 2, areas / 4), w_a)
    w_b = np.where(obtuse, np.where(cot_b < 0, areas / 2, areas / 4), w_b)
    w_c = np.where(obtuse, np.where(cot_c < 0, areas / 2, areas / 4), w_c)
    m = np.zeros(n)
    np.add.at(m, f[:, 0], w_a)
    np.add.at(m, f[:, 1], w_b)
    np.add.at(m, f[:, 2], w_c)
    acc = np.zeros((n, 3))
    for k in range(3):
        np.add.at(acc, f[:, k], fg.normals.T * areas[:, None])
    nrm = np.linalg.norm(acc, axis=1)
    defect = np.full(n, 2.0 * np.pi)
    for k in range(3):
        np.subtract.at(defect, f[:, k], fg.angles[k])
    rows = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    cols = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
    w = 0.5 * fg.cot.ravel()
    off = sparse.coo_matrix(
        (np.concatenate([-w, -w]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    ).tocsr()
    lap = (off + sparse.diags(-np.asarray(off.sum(axis=1)).ravel())).tocsr()
    v = fg.mesh.vertices
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    volume = float(np.sum(np.einsum("ij,ij->i", a, np.cross(b, c))) / 6.0)
    return m, acc / nrm[:, None], nrm / 3.0, defect, lap, volume


def open_slab():
    """The top sheet of make_slab alone: a mesh with boundary."""
    slab, sheet = make_slab(n=10), 11**2
    return TriangleMesh(slab.vertices[:sheet], slab.faces[slab.faces.max(axis=1) < sheet])


@pytest.mark.parametrize(
    "mesh_fn",
    [
        lambda: make_icosphere(1.0, 3),
        lambda: make_perturbed_sphere(1.0, [(2, 1, 0.2), (3, 0, 0.1)], seed=5, subdivisions=3),
        lambda: make_dumbbell(1.0, 0.15, 2.0),
        make_slab,
        open_slab,
    ],
    ids=["icosphere_s3", "perturbed_sphere", "dumbbell", "slab", "open_slab"],
)
def test_operators_match_per_corner_reference_bitwise(mesh_fn):
    fg = face_geometry(mesh_fn())
    m, normals, projected, defect, lap, volume = reference_operators(fg)
    assert np.array_equal(lumped_mass(fg), m)
    got_normals, got_projected = vertex_normals_and_projected_areas(fg)
    assert np.array_equal(got_normals.T, normals)
    assert np.array_equal(got_projected, projected)
    got = cotan_laplacian(fg)
    assert np.array_equal(curvature_field(fg, m, got).K, defect / m)
    assert got.format == "csr" and got.shape == lap.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(lap, attr)), attr
    assert enclosed_volume(fg) == volume
    assert volume_cubic(fg, got_normals)[0] == volume


# the meshes of test_operators_match_per_corner_reference_bitwise
REFERENCE_MESHES = pytest.mark.parametrize(
    "mesh_fn",
    [
        lambda: make_icosphere(1.0, 3),
        lambda: make_perturbed_sphere(1.0, [(2, 1, 0.2), (3, 0, 0.1)], seed=5, subdivisions=3),
        lambda: make_dumbbell(1.0, 0.15, 2.0),
        make_slab,
        open_slab,
    ],
    ids=["icosphere_s3", "perturbed_sphere", "dumbbell", "slab", "open_slab"],
)


def reference_face_geometry(mesh):
    """face_geometry in its row-major form: (3, F, 3) corners and (F, 3)
    normals through np.cross, np.linalg.norm(axis=1), np.einsum and
    np.sum(e**2, axis=1), and its scalars with the qualities and the
    degeneracy test taken one face at a time."""
    corners = mesh.vertices.take(mesh.faces.T, axis=0)
    a, b, c = corners
    ab, bc, ca = b - a, c - b, a - c
    pairs = ((ab, -ca), (bc, -ab), (ca, -bc))
    crosses = [np.cross(u, v) for u, v in pairs]
    nrm = np.array([np.linalg.norm(cr, axis=1) for cr in crosses])
    dot = np.array([np.einsum("ij,ij->i", u, v) for u, v in pairs])
    areas = 0.5 * nrm[0]
    sq_lengths = np.array([np.sum(e**2, axis=1) for e in (ab, bc, ca)])
    h_max = float(np.sqrt(sq_lengths.max()))
    qualities = [
        4.0 * math.sqrt(3.0) * a / (s0 + s1 + s2) if s0 + s1 + s2 > 0 else 0.0
        for a, s0, s1, s2 in zip(areas, *sq_lengths)
    ]
    return dict(
        corners=corners,
        areas=areas,
        normals=crosses[0] / nrm[0][:, None],
        cot=dot / nrm,
        angles=np.arctan2(nrm, dot),
        sq_lengths=sq_lengths,
        total_area=float(np.sum(areas)),
        h_min=float(np.sqrt(sq_lengths.min())),
        h_max=h_max,
        quality=min(qualities),
        degenerate=any(a < 1e-12 * h_max**2 for a in areas),
    )


def reference_volume_cubic(fg, nu):
    """volume_cubic's four face sums from (F, 3) corners through np.cross
    and np.einsum."""
    va, vb, vc = fg.mesh.vertices.take(fg.mesh.faces.T, axis=0)
    na, nb, nc = nu.take(fg.mesh.faces.T, axis=0)

    def dot(p, q):
        return np.einsum("ij,ij->i", p, q)

    x_bc, x_ca, x_ab = np.cross(vb, vc), np.cross(vc, va), np.cross(va, vb)
    n_bc, n_ca, n_ab = np.cross(nb, nc), np.cross(nc, na), np.cross(na, nb)
    terms = (
        dot(va, x_bc),
        dot(na, x_bc) + dot(nb, x_ca) + dot(nc, x_ab),
        dot(va, n_bc) + dot(vb, n_ca) + dot(vc, n_ab),
        dot(na, n_bc),
    )
    return tuple(float(np.sum(t) / 6.0) for t in terms)


# the meshes of REFERENCE_MESHES, a torus, and the explicit_sphere benchmark
# workload's input (s4, mode 2,0,0.1, initial.seed 0)
FIELD_MESHES = pytest.mark.parametrize(
    "mesh_fn",
    [
        lambda: make_icosphere(1.0, 3),
        lambda: make_perturbed_sphere(1.0, [(2, 1, 0.2), (3, 0, 0.1)], seed=5, subdivisions=3),
        lambda: make_dumbbell(1.0, 0.15, 2.0),
        make_slab,
        open_slab,
        lambda: make_torus(2.0, 0.6),
        lambda: make_perturbed_sphere(1.0, [(2, 0, 0.1)], seed=0, subdivisions=4),
    ],
    ids=[
        "icosphere_s3", "perturbed_sphere", "dumbbell", "slab", "open_slab", "torus",
        "explicit_sphere_input",
    ],
)


@FIELD_MESHES
def test_face_geometry_matches_row_major_reference_bitwise(mesh_fn):
    mesh = mesh_fn()
    fg, ref = face_geometry(mesh), reference_face_geometry(mesh)
    assert np.array_equal(fg.corners, ref["corners"].transpose(2, 0, 1))
    assert np.array_equal(fg.normals, ref["normals"].T)
    for name in ("areas", "cot", "angles", "sq_lengths"):
        assert np.array_equal(getattr(fg, name), ref[name]), name
    for name in ("total_area", "h_min", "h_max", "quality", "degenerate"):
        assert getattr(fg, name) == ref[name], name


@FIELD_MESHES
def test_curvature_field_matches_row_major_reference_bitwise(mesh_fn):
    fg = face_geometry(mesh_fn())
    mass, lap = lumped_mass(fg), cotan_laplacian(fg)
    nu, projected = vertex_normals_and_projected_areas(fg)
    # einsum's summation order follows the layout: the oracle reads (n, 3) rows
    H = np.einsum("ij,ij->i", (lap @ fg.mesh.vertices) / mass[:, None], np.ascontiguousarray(nu.T))
    cf = curvature_field(fg, mass, lap)
    assert np.array_equal(cf.normal, nu)
    assert np.array_equal(cf.H, H)
    assert np.array_equal(cf.lapH, -(lap @ H) / projected)
    assert volume_cubic(fg, nu) == reference_volume_cubic(fg, nu.T)


def test_vertex_normals_are_contiguous_rows():
    """A state's normals are (3, n) C-contiguous rows that volume_cubic
    reads as they come, and (n, 3) positions plus a transposed offset stay
    C-contiguous, so with_vertices keeps them without a copy."""
    state = FlowState(make_icosphere(1.0, 2))
    fg, nu = state.geometry, state.curvature.normal
    assert nu.shape == (3, state.mesh.num_vertices) and nu.flags.c_contiguous
    normals, projected = vertex_normals_and_projected_areas(fg)
    assert np.array_equal(nu, normals)
    c0, c1, _, _ = volume_cubic(fg, nu)
    # V'(0) along the unit normals is the sum of the projected areas
    assert c0 == enclosed_volume(fg) and c1 == pytest.approx(projected.sum(), rel=1e-12)
    moved = state.mesh.vertices + (0.01 * nu).T
    assert moved.flags.c_contiguous
    assert np.shares_memory(state.mesh.with_vertices(moved).vertices, moved)


@REFERENCE_MESHES
def test_laplacian_after_a_step_matches_reference_bitwise(mesh_fn):
    """L of a state that inherited its topology through with_vertices."""
    state = FlowState(mesh_fn())
    stepped, outcome = step_explicit(state, 1e-3 * state.geometry.h_min**4)
    assert outcome.accepted
    assert stepped.mesh.topology is state.mesh.topology
    lap = reference_operators(stepped.geometry)[4]
    got = cotan_laplacian(stepped.geometry)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(lap, attr)), attr


@REFERENCE_MESHES
def test_curvature_scale_trigger_matches_maximum_at_bitwise(mesh_fn):
    state = FlowState(mesh_fn())
    lens = np.sqrt(state.geometry.sq_lengths)
    local_h = np.zeros(state.mesh.num_vertices)
    np.maximum.at(local_h, state.mesh.faces.T, np.maximum(lens, np.roll(lens, 1, axis=0)))
    expected = (np.sqrt(state.curvature.A_sq) * local_h).max()
    assert _curvature_scale_trigger(state) == expected


def test_laplacian_rejects_degenerate_faces():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1e-16, 0], [0.5, 0.5, 1]])
    mesh = TriangleMesh(verts, [[0, 1, 2], [0, 2, 3], [1, 3, 2], [0, 3, 1]])
    with pytest.raises(MeshError, match="degenerate"):
        cotan_laplacian(face_geometry(mesh))


def test_vertex_normals_reject_a_pillow():
    # the two faces of a pillow cancel: every vertex's normal sum is zero
    mesh = TriangleMesh(np.eye(3), [[0, 1, 2], [0, 2, 1]])
    with pytest.raises(MeshError) as got:
        vertex_normals_and_projected_areas(face_geometry(mesh))
    assert str(got.value) == "vertex with vanishing normal"


def sphere_curvature(subdiv, radius=1.0):
    mesh = make_icosphere(radius, subdiv)
    fg = face_geometry(mesh)
    mass = lumped_mass(fg)
    return mesh, mass, curvature_field(fg, mass, cotan_laplacian(fg))


def test_sphere_mean_curvature():
    _, _, cf = sphere_curvature(4)
    assert cf.H.mean() == pytest.approx(2.0, rel=0.02)
    assert cf.K.mean() == pytest.approx(1.0, rel=0.02)
    assert np.abs(np.linalg.norm(cf.normal.T, axis=1) - 1.0).max() < 1e-12


def test_sphere_tracefree_below_floor():
    _, _, cf = sphere_curvature(4)
    assert cf.Ao_sq.max() < 1e-2


def test_curvature_exact_scaling():
    _, mass1, cf1 = sphere_curvature(3, 1.0)
    _, mass2, cf2 = sphere_curvature(3, 2.0)
    assert np.abs(cf2.H - cf1.H / 2.0).max() < 1e-10
    assert np.abs(cf2.K - cf1.K / 4.0).max() < 1e-10
    assert np.abs(cf2.Ao_sq - cf1.Ao_sq / 4.0).max() < 1e-10


@pytest.mark.parametrize(
    "mesh_fn,chi",
    [
        (lambda: make_icosphere(1.0, 2), 2),
        (lambda: make_perturbed_sphere(1.0, [(3, 2, 0.2)], subdivisions=3), 2),
        (lambda: make_dumbbell(1.0, 0.2, 1.5, n_phi=20, n_rings=40), 2),
        (lambda: make_torus(2.0, 0.6), 0),
        (lambda: unit_cube(), 2),
    ],
)
def test_gauss_bonnet_exact(mesh_fn, chi):
    mesh = mesh_fn()
    fg = face_geometry(mesh)
    mass = lumped_mass(fg)
    cf = curvature_field(fg, mass, cotan_laplacian(fg))
    total = integrate(cf.K, mass)
    assert abs(total - 2 * math.pi * chi) <= 1e-9 * max(abs(total), 1.0)


def test_pointwise_tracefree_identity():
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=3)
    fg = face_geometry(mesh)
    mass = lumped_mass(fg)
    cf = curvature_field(fg, mass, cotan_laplacian(fg))
    assert np.abs(cf.Ao_sq - (cf.A_sq - 0.5 * cf.H**2)).max() < 1e-14
    assert (cf.Ao_sq >= 0).all()


def test_integrate_constant_and_identity():
    mesh = make_icosphere(1.0, 3)
    fg = face_geometry(mesh)
    mass = lumped_mass(fg)
    assert integrate(np.ones(mesh.num_vertices), mass) == pytest.approx(
        fg.total_area, rel=1e-14
    )
    with pytest.raises(ValueError):
        integrate(np.ones(5), mass)


def test_integrate_total_curvature_sphere():
    mesh, mass, cf = sphere_curvature(4)
    assert integrate(cf.A_sq, mass) == pytest.approx(8 * math.pi, rel=0.03)


def dirichlet(u, lap):
    """u' L u, the discrete integral of |grad u|^2, as the pairwise np.sum
    by which diagnostics records it as gradH_l2 for u = H."""
    return float(np.sum(u * (lap @ u)))


def test_dirichlet_form_properties():
    mesh = make_icosphere(1.0, 3)
    lap = cotan_laplacian(face_geometry(mesh))
    u = mesh.vertices[:, 2] ** 2
    const = np.full(mesh.num_vertices, 2.2)
    assert abs(dirichlet(const, lap)) < 1e-12
    assert dirichlet(u, lap) >= 0
    assert dirichlet(u, lap) == pytest.approx(
        dirichlet(u + 5.0, lap), abs=1e-12 * max(dirichlet(u, lap), 1)
    )


def test_dirichlet_form_of_H_decreases_under_refinement():
    values = []
    for s in (2, 3, 4, 5):
        mesh, mass, cf = sphere_curvature(s)
        values.append(dirichlet(cf.H, cotan_laplacian(face_geometry(mesh))))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_refinement_pointwise_mean_curvature():
    errs = [np.abs(sphere_curvature(s)[2].H - 2.0).max() for s in (2, 3, 4, 5)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_torus_H_and_lapH_converge_at_second_order():
    # a torus of revolution, major radius R and tube radius r, with v the
    # angle around the tube and w = R + r cos v, has H = 1/r + cos v / w and
    # lap H = -R (R cos v + r) / (r^2 w^3): the fourth-order operator on a
    # surface that is nowhere umbilic
    R, r = 1.0, 0.4
    errs = []
    for n in (24, 48, 96):
        state = FlowState(make_torus(R, r, int(2.5 * n), n))
        cf = state.curvature
        x, y, _ = state.mesh.vertices.T
        cos_v = (np.sqrt(x * x + y * y) - R) / r
        w = R + r * cos_v
        errs.append(
            (
                np.abs(cf.H - (1.0 / r + cos_v / w)).max(),
                np.abs(cf.lapH + R * (R * cos_v + r) / (r * r * w**3)).max(),
            )
        )
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse[0] / fine[0] >= 3.5 and coarse[1] / fine[1] >= 3.5
    # measured 1.005e-3 and 2.656e-2 at n = 96, where max |lap H| is 17.4
    assert errs[-1][0] < 1.1e-3 and errs[-1][1] < 2.9e-2


def test_enclosed_volume_cube_and_tetra():
    assert enclosed_volume(face_geometry(unit_cube())) == pytest.approx(1.0, abs=1e-14)
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    assert enclosed_volume(face_geometry(TriangleMesh(verts, faces))) == pytest.approx(
        1 / 6, abs=1e-15
    )


def test_enclosed_volume_sphere():
    assert enclosed_volume(face_geometry(make_icosphere(1.0, 4))) == pytest.approx(
        4 * math.pi / 3, rel=5e-3
    )


def test_scaling_covariance_suite():
    """x -> lam x for a power of two lam scales every float by a power of
    two, which rounding commutes with, so each quantity scales exactly."""
    mesh = make_perturbed_sphere(1.0, [(2, 1, 0.15)], subdivisions=3)
    fg1 = face_geometry(mesh)
    m1, l1 = lumped_mass(fg1), cotan_laplacian(fg1)
    c1 = curvature_field(fg1, m1, l1)
    for lam in (2.0, 2.0**-3):
        fg2 = face_geometry(rescale(mesh, (0, 0, 0), lam))
        m2, l2 = lumped_mass(fg2), cotan_laplacian(fg2)
        c2 = curvature_field(fg2, m2, l2)
        assert np.array_equal(fg2.areas, lam**2 * fg1.areas)
        assert np.array_equal(fg2.sq_lengths, lam**2 * fg1.sq_lengths)
        for name in ("cot", "angles", "normals"):
            assert np.array_equal(getattr(fg2, name), getattr(fg1, name)), name
        assert fg2.total_area == lam**2 * fg1.total_area
        assert np.array_equal(m2, lam**2 * m1)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(l2, attr), getattr(l1, attr)), attr
        assert np.array_equal(c2.normal, c1.normal)
        assert np.array_equal(c2.H, c1.H / lam)
        assert np.array_equal(c2.K, c1.K / lam**2)
        assert enclosed_volume(fg2) == lam**3 * enclosed_volume(fg1)
        assert integrate(c2.Ao_sq, m2) == integrate(c1.Ao_sq, m1)
        assert dirichlet(c2.H, l2) == dirichlet(c1.H, l1) / lam**2


@settings(max_examples=15, deadline=None)
@given(amp=st.floats(0.01, 0.4), seed=st.integers(0, 10**6))
def test_gauss_bonnet_property(amp, seed):
    mesh = make_perturbed_sphere(1.0, [(2, 1, amp)], seed=seed, subdivisions=1)
    fg = face_geometry(mesh)
    mass = lumped_mass(fg)
    cf = curvature_field(fg, mass, cotan_laplacian(fg))
    assert integrate(cf.K, mass) == pytest.approx(4 * math.pi, rel=1e-9)
