"""Discrete operators and integrals: lumped mass, cotan Laplacian, curvatures.

Conventions (all tested):
  * outward unit normals; a round sphere of radius R has H = 2/R > 0
  * L is the positive semidefinite Dirichlet-form matrix, so u' L u
    discretizes the integral of |grad u|^2
  * the discrete Laplace-Beltrami of a field u is -M^{-1} L u

The operators derive from a state's one per-face pass, a mesh.FaceGeometry,
as (3, F) per-corner arrays in the corner order of the mesh's
MeshTopology.corner_index; mesh.corner_sum moves them onto the vertices
in corner order a, b, c, so every sum rounds as a fixed sequence of
np.add.at passes would.  The lumped mass is a plain (n,) array.
cotan_laplacian fills L into the CSR pattern of the mesh's MeshTopology.
enclosed_volume and volume_cubic, V(x + s nu) as an exact cubic in s, read
the pass's coordinate-major corner positions.  Vertex vectors are (3, n)
x, y, z rows too, and vector sums work on rows with mesh._cross, _dot and
_sq_norm, in the fixed orders those keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .mesh import _PREV, FaceGeometry, MeshError, _cross, _dot, _sq_norm, corner_sum


@dataclass(frozen=True)
class CurvatureField:
    """Per-vertex normal, mean/Gauss curvature, |A|^2, |A^o|^2, and lap H."""

    normal: np.ndarray  # (3, n) unit outward, rows x, y, z
    H: np.ndarray
    K: np.ndarray
    A_sq: np.ndarray
    Ao_sq: np.ndarray
    lapH: np.ndarray


def _require_nondegenerate(fg: FaceGeometry) -> None:
    if fg.degenerate:
        raise MeshError("degenerate face encountered")


def lumped_mass(fg: FaceGeometry) -> np.ndarray:
    """Mixed Voronoi vertex areas; they sum to fg.total_area up to rounding.

    Non-obtuse triangles contribute their circumcentric (Voronoi) corner
    pieces; obtuse ones fall back to area/2 at the obtuse corner and area/4
    elsewhere.  Both rules partition the face area exactly, and every piece
    is positive.  Pointwise curvature quotients built on these areas stay
    consistent at irregular-valence vertices, which barycentric thirds do not.
    """
    _require_nondegenerate(fg)
    areas, cot = fg.areas, fg.cot
    # squared length of edges ab, bc, ca times the cotangent opposite it;
    # corner a touches edges ca and ab, b touches ab and bc, c bc and ca
    t = fg.sq_lengths * cot[_PREV]
    w = (t + t[_PREV]) / 8.0
    w = np.where((cot < 0).any(axis=0), np.where(cot < 0, areas / 2, areas / 4), w)
    return corner_sum(fg.mesh, w)


def cotan_laplacian(fg: FaceGeometry) -> sparse.csr_matrix:
    """Cotangent stiffness matrix L (symmetric PSD, zero row sums):
    off-diagonal -(cot a + cot b)/2 per edge, diagonal minus the row sum.

    L fills the mesh's fixed CSR pattern.  An off-diagonal is 0 + w1 + w2,
    its contributions in corner order, and a diagonal is -np.add.reduceat
    over its row's off-diagonals, so L is bit for bit the CSR matrix of a
    COO -> CSR build minus the diagonal of its row sums; like that
    difference, L stores no entry that is exactly 0."""
    _require_nondegenerate(fg)
    topo, n = fg.mesh.topology, fg.mesh.num_vertices
    w = -0.5 * fg.cot.ravel()
    data = np.bincount(topo.slots, np.concatenate([w, w]), len(topo.indices))
    data[topo.diagonal] = -np.add.reduceat(data[topo.offdiag], topo.row_starts)
    lap = sparse.csr_matrix((data, topo.indices, topo.indptr), shape=(n, n))
    if not data.all():
        # the pattern is shared, so drop the zeros from a copy
        lap = lap.copy()
        lap.eliminate_zeros()
    return lap


def vertex_normals_and_projected_areas(fg: FaceGeometry):
    """Unit vertex normals, (3, n) rows, and the projected dual areas |sum A_f n_f| / 3.

    The normal is the area-weighted average of incident face outward
    normals.  The projected area is exactly the normal component of the
    discrete volume gradient at the vertex, which makes it the quadrature
    weight under which sum_i m~_i (lap H)_i vanishes identically (the
    discrete divergence theorem behind volume conservation).
    """
    w = fg.normals * fg.areas
    acc = np.array([corner_sum(fg.mesh, np.broadcast_to(wc, (3, wc.size))) for wc in w])
    nrm = np.sqrt(_sq_norm(acc))
    if (nrm == 0).any():
        raise MeshError("vertex with vanishing normal")
    return acc / nrm, nrm / 3.0


def angle_defects(fg: FaceGeometry) -> np.ndarray:
    """2*pi minus the sum of incident triangle angles, per vertex."""
    # subtracting from 2*pi one angle at a time rounds differently from
    # subtracting the angle sum, so this stays a scatter, not a corner_sum
    defect = np.full(fg.mesh.num_vertices, 2.0 * np.pi)
    np.subtract.at(defect, fg.mesh.topology.corner_index.ravel(), fg.angles.ravel())
    return defect


def curvature_field(fg: FaceGeometry, mass: np.ndarray, lap: sparse.csr_matrix) -> CurvatureField:
    nu, m_proj = vertex_normals_and_projected_areas(fg)
    # each column of lap @ (n, 3) is bit for bit the matvec of its row
    mean_curv_vec = (lap @ fg.mesh.vertices).T / mass
    H = _dot(mean_curv_vec, nu)
    K = angle_defects(fg) / mass
    # dimension-2 identities; discretization noise in H^2/2 - 2K is clamped
    # at zero so the tracefree energy stays a nonnegative Lyapunov candidate,
    # and |A|^2 is rebuilt from the clamped value to keep Ao_sq = A_sq - H^2/2
    # exact pointwise
    Ao_sq = np.maximum(0.5 * H**2 - 2.0 * K, 0.0)
    A_sq = Ao_sq + 0.5 * H**2
    # lap H is divided by the projected dual area, not the Voronoi one:
    # the flow velocity then satisfies sum_i m~_i (lap H)_i = 0 exactly,
    # so volume drift under the explicit stepper is second order in dt
    lapH = -(lap @ H) / m_proj
    return CurvatureField(normal=nu, H=H, K=K, A_sq=A_sq, Ao_sq=Ao_sq, lapH=lapH)


def integrate(field: np.ndarray, mass: np.ndarray) -> float:
    """Discrete integral sum(u_i m_i) with pairwise (reproducible) summation."""
    field = np.asarray(field)
    if field.shape != mass.shape:
        raise ValueError("field length must match vertex count")
    return float(np.sum(field * mass))


def dirichlet_energy(field: np.ndarray, lap: sparse.csr_matrix) -> float:
    """u' L u, the discrete integral of |grad u|^2; nonnegative."""
    field = np.asarray(field)
    if field.shape[0] != lap.shape[0]:
        raise ValueError("field length must match vertex count")
    return float(field @ (lap @ field))


def enclosed_volume(fg: FaceGeometry) -> float:
    """Signed volume (1/6) sum <a, b x c>; positive for outward orientation."""
    va, vb, vc = fg.corners.transpose(1, 0, 2)
    return float(np.sum(_dot(va, _cross(vb, vc))) / 6.0)


def volume_cubic(fg: FaceGeometry, nu: np.ndarray):
    """Coefficients (c0, c1, c2, c3) of the exact cubic
    enclosed_volume(x + s nu) = c0 + c1 s + c2 s^2 + c3 s^3 for (3, n) rows
    nu, from one pass over the faces; c0 is the enclosed volume itself."""
    corner_nu = nu.take(fg.mesh.topology.corner_index, axis=1)
    (va, vb, vc), (na, nb, nc) = fg.corners.transpose(1, 0, 2), corner_nu.transpose(1, 0, 2)
    x_bc, x_ca, x_ab = _cross(vb, vc), _cross(vc, va), _cross(va, vb)
    n_bc, n_ca, n_ab = _cross(nb, nc), _cross(nc, na), _cross(na, nb)
    terms = (
        _dot(va, x_bc),
        _dot(na, x_bc) + _dot(nb, x_ca) + _dot(nc, x_ab),
        _dot(va, n_bc) + _dot(vb, n_ca) + _dot(vc, n_ab),
        _dot(na, n_bc),
    )
    return tuple(float(np.sum(t) / 6.0) for t in terms)
