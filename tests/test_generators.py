import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdflow.generators import (
    _ICO_FACES,
    _ICO_VERTS,
    make_dumbbell,
    make_ellipsoid,
    make_icosphere,
    make_perturbed_sphere,
    make_torus,
    real_sph_harm,
)
from sdflow.geometry import (
    cotan_laplacian,
    curvature_field,
    enclosed_volume,
    integrate,
    lumped_mass,
)
from sdflow.mesh import _sq_norm, face_geometry, validate


@pytest.mark.parametrize("subdiv", [0, 1, 2, 3])
def test_icosphere_vertex_count(subdiv):
    mesh = make_icosphere(1.0, subdiv)
    assert mesh.num_vertices == 10 * 4**subdiv + 2
    assert validate(mesh).euler_characteristic == 2


def test_icosphere_radius_exact():
    mesh = make_icosphere(1.0, 3)
    assert mesh.num_vertices == 642
    assert np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0).max() < 1e-12


def test_icosphere_deep_subdivision_topology():
    rep = validate(make_icosphere(0.7, 6))
    assert rep.is_closed and rep.is_oriented and rep.euler_characteristic == 2


def test_icosphere_scaling_bitwise():
    a = make_icosphere(1.0, 2)
    b = make_icosphere(2.0, 2)
    assert np.array_equal(b.vertices, 2.0 * a.vertices)
    assert np.array_equal(b.faces, a.faces)


def test_icosphere_guards():
    with pytest.raises(ValueError, match="subdivision limit"):
        make_icosphere(1.0, 99)
    with pytest.raises(ValueError):
        make_icosphere(-1.0, 2)


def test_perturbed_sphere_empty_modes_bitwise():
    a = make_icosphere(1.5, 3)
    b = make_perturbed_sphere(1.5, [], subdivisions=3)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


def test_perturbed_sphere_amplitude_guard():
    with pytest.raises(ValueError, match="amp"):
        make_perturbed_sphere(1.0, [(2, 0, 0.6)], subdivisions=1)
    # |amp| < radius/2, but max |Y_40^0| is 2.54: -0.49 Y_40^0 puts the poles
    # at radius 1 - 1.24 < 0, which turns their faces inside out
    with pytest.raises(ValueError, match="through the center"):
        make_perturbed_sphere(1.0, [(40, 0, -0.49)], subdivisions=2)


@pytest.mark.parametrize("mode", [(2.7, 0, 0.1), (2, 0.5, 0.1)], ids=["float_l", "float_m"])
def test_perturbed_sphere_rejects_a_non_integer_degree_or_order(mode):
    # truncated to (2, 0), these would build the l = 2 surface silently
    with pytest.raises(ValueError, match="integers"):
        make_perturbed_sphere(1.0, [mode], subdivisions=1)


def test_perturbed_sphere_seed_reproducible():
    a = make_perturbed_sphere(1.0, [(2, 0, 0.2), (3, 1, 0.1)], seed=7, subdivisions=2)
    b = make_perturbed_sphere(1.0, [(2, 0, 0.2), (3, 1, 0.1)], seed=7, subdivisions=2)
    c = make_perturbed_sphere(1.0, [(2, 0, 0.2), (3, 1, 0.1)], seed=8, subdivisions=2)
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, c.vertices)


@pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (2, 0), (2, 1), (3, -2), (4, 4)])
def test_real_sph_harm_unit_norm(l, m):
    mesh = make_icosphere(1.0, 4)
    mass = lumped_mass(face_geometry(mesh))
    y = real_sph_harm(l, m, mesh.vertices)
    assert integrate(y**2, mass) == pytest.approx(1.0, rel=2e-2)


def test_real_sph_harm_constant_mode():
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert np.allclose(real_sph_harm(0, 0, dirs), 1.0 / math.sqrt(4 * math.pi))


def test_real_sph_harm_rejects_bad_orders():
    with pytest.raises(ValueError):
        real_sph_harm(2, 3, np.array([[0.0, 0.0, 1.0]]))


def reference_real_sph_harm(l, m, dirs):
    """Y_l^m from scipy.special's gammaln and lpmv, the azimuth from arctan2."""
    from scipy.special import gammaln, lpmv

    dirs = np.asarray(dirs, dtype=np.float64)
    ct = np.clip(dirs[..., 2], -1.0, 1.0)
    phi = np.arctan2(dirs[..., 1], dirs[..., 0])
    ma = abs(m)
    norm = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.exp(gammaln(l - ma + 1) - gammaln(l + ma + 1))
    )
    p = lpmv(ma, l, ct)
    if m > 0:
        return math.sqrt(2.0) * norm * p * np.cos(ma * phi)
    if m < 0:
        return math.sqrt(2.0) * norm * p * np.sin(ma * phi)
    return norm * p


def assert_same_bits(a, b):
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def oracle_z():
    """The ends, both zeros and the float just below 1, then 10^4 uniform draws."""
    edges = np.array([-1.0, -0.0, 0.0, 1.0, 1.0 - 2.0**-53])
    return np.concatenate([edges, np.random.default_rng(0).uniform(-1.0, 1.0, 10_000)])


def s4_directions():
    s4 = make_icosphere(1.0, 4).vertices
    return s4 / np.sqrt(_sq_norm(s4.T))[:, None]


# sign, normalization and the recurrences against scipy.special; the largest
# error seen, relative to max |Y_l^m|, was 1.6e-14
def test_real_sph_harm_matches_scipy_to_1e_13():
    z = oracle_z()
    # unit vectors with the oracle z, at azimuths that visit every quadrant
    rho = np.sqrt(1.0 - z * z)
    phi = np.linspace(-math.pi, math.pi, len(z))
    zdirs = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    for dirs in (s4_directions(), zdirs):
        for l in range(21):
            for m in range(-l, l + 1):
                want = reference_real_sph_harm(l, m, dirs)
                err = np.abs(real_sph_harm(l, m, dirs) - want).max()
                assert err <= 1e-13 * np.abs(want).max(), (l, m)


PORTABLE = """
import sys
import numpy as np
from sdflow.generators import make_icosphere, make_perturbed_sphere, real_sph_harm
from sdflow.mesh import _sq_norm

s4 = make_icosphere(1.0, 4).vertices
dirs = s4 / np.sqrt(_sq_norm(s4.T))[:, None]
ys = [real_sph_harm(l, m, dirs) for l in range(9) for m in range(-l, l + 1)]
np.save(sys.argv[1], np.stack([*ys, *make_perturbed_sphere(1.0, [(3, 1, 0.2)]).vertices.T]))
"""


# numpy picks kernels such as arctan2's by CPU, and the AVX-512 ones round
# differently; the harmonics use + - * / only, so a child with those
# kernels off computes the same bits.  On a CPU without AVX-512 both sides
# run the same kernels, so this still runs but compares less.
def test_perturbed_sphere_bytes_do_not_depend_on_numpy_cpu_kernels(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    out = tmp_path / "child.npy"
    proc = subprocess.run(
        [sys.executable, "-c", PORTABLE, str(out)], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    ys = [real_sph_harm(l, m, s4_directions()) for l in range(9) for m in range(-l, l + 1)]
    verts = make_perturbed_sphere(1.0, [(3, 1, 0.2)]).vertices
    assert_same_bits(np.load(out), np.stack([*ys, *verts.T]))


def test_perturbed_sphere_scale_invariant_energy():
    a = make_perturbed_sphere(1.0, [(2, 0, 0.1)])
    b = make_perturbed_sphere(2.0, [(2, 0, 0.2)])
    assert np.array_equal(b.vertices, 2.0 * a.vertices)

    def tracefree(mesh):
        fg = face_geometry(mesh)
        mass = lumped_mass(fg)
        cf = curvature_field(fg, mass, cotan_laplacian(fg))
        return integrate(cf.Ao_sq, mass)

    ea, eb = tracefree(a), tracefree(b)
    assert ea > 0
    assert abs(ea - eb) < 1e-12 * max(ea, 1.0)


def reference_icosphere(radius, subdivisions):
    """Icosphere vertices and faces with each midpoint projected through
    np.linalg.norm(axis=1), as the generators did before mesh._sq_norm."""
    verts, faces = _ICO_VERTS, _ICO_FACES
    for _ in range(subdivisions):
        he = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        uniq, inverse = np.unique(np.sort(he, axis=1), axis=0, return_inverse=True)
        mid = verts[uniq[:, 0]] + verts[uniq[:, 1]]
        mid /= np.linalg.norm(mid, axis=1)[:, None]
        m01, m12, m20 = np.split(len(verts) + inverse, 3)
        a, b, c = faces.T
        verts = np.concatenate([verts, mid])
        corners = ([a, m01, m20], [b, m12, m01], [c, m20, m12], [m01, m12, m20])
        faces = np.concatenate([np.column_stack(t) for t in corners])
    return verts * radius, faces


def reference_perturbed_sphere(radius, modes, seed, subdivisions):
    verts, faces = reference_icosphere(radius, subdivisions)
    amps = [float(a) for (_, _, a) in modes]
    if seed is not None:
        rng = np.random.default_rng(seed)
        amps = [rng.uniform(-abs(a), abs(a)) for a in amps]
    dirs = verts / np.linalg.norm(verts, axis=1)[:, None]
    offset = np.zeros(len(verts))
    for (l, m, _), a in zip(modes, amps):
        offset += a * real_sph_harm(l, m, dirs)
    return verts * ((radius + offset) / radius)[:, None], faces


def reference_ellipsoid(rx, ry, rz, subdivisions):
    verts, faces = reference_icosphere(1.0, subdivisions)
    return verts * np.array([rx, ry, rz]), faces


# the initial vertices sum each squared length in mesh._sq_norm's fixed
# order, and that order is numpy 2.4's np.linalg.norm(axis=1) order, so every
# written initial mesh keeps its bits
@pytest.mark.parametrize(
    "build, reference",
    [
        *[
            pytest.param(
                lambda s=s: make_icosphere(1.7, s),
                lambda s=s: reference_icosphere(1.7, s),
                id=f"icosphere_s{s}",
            )
            for s in range(6)
        ],
        *[
            pytest.param(
                lambda seed=seed, amp=amp: make_perturbed_sphere(1.0, [(2, 0, amp)], seed, 4),
                lambda seed=seed, amp=amp: reference_perturbed_sphere(1.0, [(2, 0, amp)], seed, 4),
                id=f"{name}_seed{seed}",
            )
            for name, amp in (("explicit_sphere", 0.1), ("implicit_sphere", 0.3))
            for seed in (0, 3)
        ],
        pytest.param(
            lambda: make_perturbed_sphere(1.3, [(2, 0, 0.1), (3, -2, 0.05)], None, 3),
            lambda: reference_perturbed_sphere(1.3, [(2, 0, 0.1), (3, -2, 0.05)], None, 3),
            id="perturbed_unseeded",
        ),
        pytest.param(
            lambda: make_ellipsoid(1.0, 2.0, 0.5, 3),
            lambda: reference_ellipsoid(1.0, 2.0, 0.5, 3),
            id="ellipsoid",
        ),
    ],
)
def test_initial_vertices_match_the_linalg_norm_reference_bitwise(build, reference):
    mesh = build()
    verts, faces = reference()
    assert_same_bits(mesh.vertices, verts)
    assert np.array_equal(mesh.faces, faces)


@pytest.mark.parametrize(
    "bulb,neck,length", [(1.0, 0.9, 0.5), (1.0, 0.5, 1.0), (1.0, 0.15, 2.0)]
)
def test_dumbbell_topology(bulb, neck, length):
    rep = validate(make_dumbbell(bulb, neck, length, n_phi=24, n_rings=48))
    assert rep.is_closed and rep.is_oriented
    assert rep.euler_characteristic == 2


def test_dumbbell_thin_neck_curvature():
    mesh = make_dumbbell(1.0, 0.15, 2.0)
    fg = face_geometry(mesh)
    mass = lumped_mass(fg)
    cf = curvature_field(fg, mass, cotan_laplacian(fg))
    assert math.sqrt(cf.A_sq.max()) > 4.0


def test_dumbbell_near_capsule_energy_small():
    mesh = make_dumbbell(1.0, 0.9, 0.5)
    fg = face_geometry(mesh)
    mass = lumped_mass(fg)
    cf = curvature_field(fg, mass, cotan_laplacian(fg))
    # frozen fixture value: measured 8.10 at the default resolution
    assert 0 < integrate(cf.Ao_sq, mass) < 10.0


def test_dumbbell_parameter_order():
    with pytest.raises(ValueError):
        make_dumbbell(0.5, 0.9, 1.0)
    with pytest.raises(ValueError):
        make_dumbbell(1.0, 0.2, -1.0)


@pytest.mark.parametrize("size", [0.0, -1.0, math.inf, math.nan])
def test_generators_reject_sizes_not_positive_and_finite(size):
    builders = [
        lambda: make_icosphere(size, 1),
        lambda: make_ellipsoid(1.0, size, 1.0, 1),
        lambda: make_dumbbell(size, 0.15, 2.0),
        lambda: make_dumbbell(1.0, 0.15, size),
        lambda: make_torus(size, 0.4),
    ]
    for build in builders:
        with pytest.raises(ValueError):
            build()


def test_dumbbell_positive_volume():
    mesh = make_dumbbell(1.0, 0.3, 1.0, n_phi=24, n_rings=48)
    assert enclosed_volume(face_geometry(mesh)) > 0


def reference_dumbbell_faces(n_phi, n_rings, n_verts):
    """make_dumbbell's faces built ring by ring, as a per-ring loop did."""
    jj = np.arange(n_phi)
    j1 = (jj + 1) % n_phi
    faces = [np.column_stack([np.zeros(n_phi, dtype=np.int64), 1 + j1, 1 + jj])]
    for k in range(n_rings - 1):
        lo = 1 + k * n_phi
        hi = lo + n_phi
        faces.append(np.column_stack([lo + jj, lo + j1, hi + j1]))
        faces.append(np.column_stack([lo + jj, hi + j1, hi + jj]))
    last = 1 + (n_rings - 1) * n_phi
    pole = np.full(n_phi, n_verts - 1, dtype=np.int64)
    faces.append(np.column_stack([pole, last + jj, last + j1]))
    return np.concatenate(faces)


@pytest.mark.parametrize("n_phi, n_rings", [(48, 96), (3, 4), (32, 64)])
def test_dumbbell_faces_match_the_per_ring_reference(n_phi, n_rings):
    mesh = make_dumbbell(1.0, 0.15, 2.0, n_phi=n_phi, n_rings=n_rings)
    reference = reference_dumbbell_faces(n_phi, n_rings, mesh.num_vertices)
    assert mesh.faces.dtype == reference.dtype
    assert np.array_equal(mesh.faces, reference)


def test_torus_geometry():
    mesh = make_torus(2.0, 0.5)
    rep = validate(mesh)
    assert rep.euler_characteristic == 0
    volume = enclosed_volume(face_geometry(mesh))
    assert volume == pytest.approx(2 * math.pi**2 * 2.0 * 0.25, rel=0.03)


def test_torus_rejects_fewer_than_3_segments():
    with pytest.raises(ValueError) as got:
        make_torus(2.0, 0.5, 2, 8)
    assert str(got.value) == "need at least 3 segments in each direction"


def test_ellipsoid_volume():
    mesh = make_ellipsoid(1.0, 2.0, 0.5, subdivisions=4)
    assert validate(mesh).euler_characteristic == 2
    volume = enclosed_volume(face_geometry(mesh))
    assert volume == pytest.approx(4 * math.pi / 3 * 1.0 * 2.0 * 0.5, rel=0.01)


@settings(max_examples=20, deadline=None)
@given(
    radius=st.floats(0.2, 5.0),
    l=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
def test_perturbed_sphere_valid_topology(radius, l, seed):
    mesh = make_perturbed_sphere(
        radius, [(l, min(l, 1), 0.3 * radius)], seed=seed, subdivisions=1
    )
    rep = validate(mesh)
    assert rep.is_closed and rep.is_oriented and rep.euler_characteristic == 2
