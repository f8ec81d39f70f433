import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdflow.generators import (
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
from sdflow.mesh import face_geometry, validate


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


def test_torus_geometry():
    mesh = make_torus(2.0, 0.5)
    rep = validate(mesh)
    assert rep.euler_characteristic == 0
    volume = enclosed_volume(face_geometry(mesh))
    assert volume == pytest.approx(2 * math.pi**2 * 2.0 * 0.25, rel=0.03)


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
