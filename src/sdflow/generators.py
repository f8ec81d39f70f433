"""Parametric generators for initial data: spheres, dumbbells, ellipsoids, tori."""

from __future__ import annotations

import math

import numpy as np

from .mesh import MeshError, TriangleMesh, _sq_norm

MAX_SUBDIVISIONS = 8

# Icosahedron with circumradius 1; faces wind counterclockwise from outside.
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=np.float64,
) / math.sqrt(1.0 + _PHI**2)
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def _subdivide_on_sphere(verts: np.ndarray, faces: np.ndarray):
    """Split each face in four, projecting edge midpoints to the unit sphere."""
    he = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    und = np.sort(he, axis=1)
    uniq, inverse = np.unique(und, axis=0, return_inverse=True)
    mid = verts[uniq[:, 0]] + verts[uniq[:, 1]]
    mid /= np.sqrt(_sq_norm(mid.T))[:, None]
    new_verts = np.concatenate([verts, mid])
    m01, m12, m20 = np.split(len(verts) + inverse, 3)
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    new_faces = np.concatenate(
        [
            np.column_stack([a, m01, m20]),
            np.column_stack([b, m12, m01]),
            np.column_stack([c, m20, m12]),
            np.column_stack([m01, m12, m20]),
        ]
    )
    return new_verts, new_faces


def make_icosphere(radius: float, subdivisions: int) -> TriangleMesh:
    """Icosahedron subdivided `subdivisions` times, vertices at |x| = radius."""
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    if not 0 <= subdivisions <= MAX_SUBDIVISIONS:
        raise ValueError(f"subdivision limit exceeded (max {MAX_SUBDIVISIONS})")
    verts, faces = _ICO_VERTS, _ICO_FACES
    for _ in range(subdivisions):
        verts, faces = _subdivide_on_sphere(verts, faces)
    return TriangleMesh(verts * radius, faces)


def real_sph_harm(l: int, m: int, dirs: np.ndarray) -> np.ndarray:
    """Real spherical harmonic Y_l^m at unit vectors, unit L2 norm on S2,
    Condon-Shortley phase included.

    Only + - * / act on the coordinates, so every CPU rounds alike.  With
    rho^2 = x^2 + y^2, rho^|m| (cos |m|phi + i sin |m|phi) = (x + i y)^|m|,
    and P_l^|m|(z) / ((-1)^|m| (2|m|-1)!! rho^|m|) is a polynomial in z that
    starts at 1 for l = |m| and rises in l by the Legendre recurrence.
    """
    if not (isinstance(l, (int, np.integer)) and isinstance(m, (int, np.integer))):
        raise ValueError("l and m must be integers")
    if l < 0 or abs(m) > l:
        raise ValueError("need l >= 0 and |m| <= l")
    x, y, z = np.moveaxis(np.asarray(dirs, dtype=np.float64), -1, 0)
    l, ma = int(l), abs(int(m))
    c, s = np.ones_like(x), np.zeros_like(x)
    for _ in range(ma):
        c, s = x * c - y * s, x * s + y * c
    p0, p = 0.0, np.ones_like(z)
    for j in range(ma + 1, l + 1):
        p0, p = p, ((2 * j - 1) * z * p - (j + ma - 1) * p0) / (j - ma)
    odd = math.prod(range(2 * ma - 1, 0, -2))  # (2|m| - 1)!!
    ratio = math.factorial(l - ma) * odd * odd / math.factorial(l + ma)
    norm = (-1) ** ma * math.sqrt((2 if m else 1) * (2 * l + 1) / (4.0 * math.pi) * ratio)
    return norm * p * (c if m > 0 else s if m < 0 else 1.0)


def make_perturbed_sphere(
    radius: float,
    mode_amplitudes,
    seed: int | None = None,
    subdivisions: int = 4,
) -> TriangleMesh:
    """Icosphere with radial offsets sum(amp * Y_l^m) along each direction.

    With a seed, each listed amplitude is instead drawn uniformly from
    [-|amp|, |amp|].  An empty mode list reproduces the icosphere bit for bit.
    """
    base = make_icosphere(radius, subdivisions)
    modes = list(mode_amplitudes)
    if not modes:
        return base
    amps = [float(amp) for (_, _, amp) in modes]
    if seed is not None:
        rng = np.random.default_rng(seed)
        amps = [rng.uniform(-abs(a), abs(a)) for a in amps]
    for a in amps:
        if not abs(a) < radius / 2.0:
            raise ValueError("mode amplitude must satisfy |amp| < radius/2")
    dirs = base.vertices / np.sqrt(_sq_norm(base.vertices.T))[:, None]
    offset = np.zeros(base.num_vertices)
    for (l, m, _), a in zip(modes, amps):
        offset += a * real_sph_harm(l, m, dirs)
    # with every radius positive each face keeps the icosphere's orientation
    if not (radius + offset > 0).all():
        raise ValueError("the modes push a vertex through the center")
    scale = (radius + offset) / radius
    return TriangleMesh(base.vertices * scale[:, None], base.faces)


def make_ellipsoid(rx: float, ry: float, rz: float, subdivisions: int = 4) -> TriangleMesh:
    """Axis-aligned ellipsoid from an anisotropically scaled icosphere."""
    if not all(0 < r < math.inf for r in (rx, ry, rz)):
        raise ValueError("semi-axes must be positive and finite")
    base = make_icosphere(1.0, subdivisions)
    return TriangleMesh(base.vertices * np.array([rx, ry, rz]), base.faces)


def make_torus(
    major_radius: float, minor_radius: float, n_major: int = 48, n_minor: int = 24
) -> TriangleMesh:
    """Genus-1 torus of revolution about the z-axis."""
    if not 0 < minor_radius < major_radius < math.inf:
        raise ValueError("need 0 < minor_radius < major_radius < inf")
    if n_major < 3 or n_minor < 3:
        raise ValueError("need at least 3 segments in each direction")
    u = 2.0 * np.pi * np.arange(n_major) / n_major
    v = 2.0 * np.pi * np.arange(n_minor) / n_minor
    uu, vv = np.meshgrid(u, v, indexing="ij")
    w = major_radius + minor_radius * np.cos(vv)
    verts = np.column_stack(
        [
            (w * np.cos(uu)).ravel(),
            (w * np.sin(uu)).ravel(),
            (minor_radius * np.sin(vv)).ravel(),
        ]
    )
    i = np.repeat(np.arange(n_major), n_minor)
    j = np.tile(np.arange(n_minor), n_major)
    i1 = (i + 1) % n_major
    j1 = (j + 1) % n_minor
    v00 = i * n_minor + j
    v10 = i1 * n_minor + j
    v01 = i * n_minor + j1
    v11 = i1 * n_minor + j1
    faces = np.concatenate(
        [np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])]
    )
    return TriangleMesh(verts, faces)


def _dumbbell_profile(bulb_radius: float, neck_radius: float, neck_length: float):
    """Neck scale, bulb offset, and join height for a tangent catenary neck.

    The neck is rho(x) = neck_radius*cosh(x/a) on |x| <= c with c half the
    neck length; `a` and the bulb center offset are solved so the profile
    meets the bulb circle tangentially (C1 join).
    """
    from scipy.optimize import brentq

    R, rn, c = bulb_radius, neck_radius, neck_length / 2.0

    def mismatch(a):
        rho_j = rn * math.cosh(c / a)
        if rho_j >= R:
            return math.inf
        e = math.sqrt(R * R - rho_j * rho_j)
        return (rn / a) * math.sinh(c / a) - e / rho_j

    # Bracket: a_hi makes the neck nearly cylindrical (slope too small),
    # a_lo pushes the join height toward the bulb radius (slope too large).
    a_hi = 100.0 * c / math.acosh(R / rn)
    a_lo = c / math.acosh(R / rn) * (1.0 + 1e-9)
    lo = mismatch(a_lo)
    for _ in range(1000):  # a_lo grows by 0.1 % at most
        if np.isfinite(lo):
            break
        a_lo *= 1.0 + 1e-6
        lo = mismatch(a_lo)
    if not (np.isfinite(lo) and lo > 0 > mismatch(a_hi)):
        raise MeshError("degenerate neck: no tangent join exists")
    a = brentq(mismatch, a_lo, a_hi, xtol=1e-14, rtol=1e-14)
    rho_j = rn * math.cosh(c / a)
    e = math.sqrt(R * R - rho_j * rho_j)
    return a, e, rho_j


def make_dumbbell(
    bulb_radius: float,
    neck_radius: float,
    neck_length: float,
    n_phi: int = 48,
    n_rings: int = 96,
) -> TriangleMesh:
    """Two spherical bulbs joined by a catenary neck, revolved about x.

    neck_length is the axial extent of the neck section; bulb centers sit
    beyond it at +-(neck_length/2 + offset) with a tangent join.
    """
    if not 0 < neck_radius < bulb_radius < math.inf:
        raise ValueError("need 0 < neck_radius < bulb_radius < inf")
    if not 0 < neck_length < math.inf:
        raise ValueError("neck_length must be positive and finite")
    if n_phi < 3 or n_rings < 4:
        raise ValueError("resolution too coarse")
    R, rn, c = bulb_radius, neck_radius, neck_length / 2.0
    a, e, rho_j = _dumbbell_profile(R, rn, neck_length)
    xc = c + e  # bulb center
    # polyline along the right half of the profile: waist -> join -> pole
    t_neck = np.linspace(0.0, c, 400, endpoint=False)
    theta_j = math.atan2(rho_j, c - xc)  # polar angle of join on bulb circle
    t_cap = np.linspace(theta_j, 0.0, 400)
    xs = np.concatenate([t_neck, xc + R * np.cos(t_cap)])
    rs = np.concatenate([rn * np.cosh(t_neck / a), R * np.sin(t_cap)])
    xs = np.concatenate([-xs[::-1][:-1], xs])
    rs = np.concatenate([rs[::-1][:-1], rs])
    # resample by arc length into n_rings interior stations
    seg = np.hypot(np.diff(xs), np.diff(rs))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    stations = np.linspace(0.0, s[-1], n_rings + 2)[1:-1]
    x_st = np.interp(stations, s, xs)
    r_st = np.interp(stations, s, rs)

    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    ring_pts = np.empty((n_rings, n_phi, 3))
    ring_pts[:, :, 0] = x_st[:, None]
    ring_pts[:, :, 1] = r_st[:, None] * np.cos(phi)[None, :]
    ring_pts[:, :, 2] = r_st[:, None] * np.sin(phi)[None, :]
    verts = np.concatenate(
        [[[-(xc + R), 0.0, 0.0]], ring_pts.reshape(-1, 3), [[xc + R, 0.0, 0.0]]]
    )

    jj = np.arange(n_phi)
    j1 = (jj + 1) % n_phi
    # ring k (k = 0 next to the -x pole) is vertices 1 + k * n_phi + j; the band
    # from ring lo to ring hi is (lo j, lo j1, hi j1) then (lo j, hi j1, hi j)
    lo = 1 + n_phi * np.arange(n_rings - 1)[:, None]
    hi = lo + n_phi
    band = [np.stack([lo + jj, lo + j1, hi + j1], -1), np.stack([lo + jj, hi + j1, hi + jj], -1)]
    last = 1 + (n_rings - 1) * n_phi
    faces = [
        np.column_stack([np.zeros(n_phi, dtype=np.int64), 1 + j1, 1 + jj]),
        np.stack(band, 1).reshape(-1, 3),
        np.column_stack([np.full(n_phi, len(verts) - 1, dtype=np.int64), last + jj, last + j1]),
    ]
    return TriangleMesh(verts, np.concatenate(faces))
