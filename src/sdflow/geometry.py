"""Discrete operators and integrals: lumped mass, cotan Laplacian, curvatures.

Conventions (all tested):
  * outward unit normals; a round sphere of radius R has H = 2/R > 0
  * L is the positive semidefinite Dirichlet-form matrix, so u' L u
    discretizes the integral of |grad u|^2
  * the discrete Laplace-Beltrami of a field u is -M^{-1} L u

The operators derive from a state's one per-face pass, a mesh.FaceGeometry.
volume_cubic gives enclosed_volume(x + s nu), exactly a cubic in s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .mesh import FaceGeometry, MeshError, TriangleMesh, face_corner_vertices


@dataclass(frozen=True)
class LumpedMass:
    """Per-vertex dual areas; m sums exactly to the total face area."""

    m: np.ndarray
    total_area: float


@dataclass(frozen=True)
class LaplaceOperator:
    """Cotangent stiffness matrix (symmetric PSD, zero row sums)."""

    matrix: sparse.csr_matrix


@dataclass(frozen=True)
class CurvatureField:
    """Per-vertex normal, mean/Gauss curvature, |A|^2, |A^o|^2, and lap H."""

    normal: np.ndarray
    H: np.ndarray
    K: np.ndarray
    A_sq: np.ndarray
    Ao_sq: np.ndarray
    lapH: np.ndarray


def _require_nondegenerate(fg: FaceGeometry) -> None:
    if fg.degenerate:
        raise MeshError("degenerate face encountered")


def lumped_mass(fg: FaceGeometry) -> LumpedMass:
    """Mixed Voronoi vertex areas.

    Non-obtuse triangles contribute their circumcentric (Voronoi) corner
    pieces; obtuse ones fall back to area/2 at the obtuse corner and area/4
    elsewhere.  Both rules partition the face area exactly, and every piece
    is positive.  Pointwise curvature quotients built on these areas stay
    consistent at irregular-valence vertices, which barycentric thirds do not.
    """
    _require_nondegenerate(fg)
    areas = fg.areas
    cot_a, cot_b, cot_c = fg.cot
    l_ab, l_bc, l_ca = fg.sq_lengths
    w_a = (l_ab * cot_c + l_ca * cot_b) / 8.0
    w_b = (l_ab * cot_c + l_bc * cot_a) / 8.0
    w_c = (l_ca * cot_b + l_bc * cot_a) / 8.0
    obtuse = (cot_a < 0) | (cot_b < 0) | (cot_c < 0)
    w_a = np.where(obtuse, np.where(cot_a < 0, areas / 2, areas / 4), w_a)
    w_b = np.where(obtuse, np.where(cot_b < 0, areas / 2, areas / 4), w_b)
    w_c = np.where(obtuse, np.where(cot_c < 0, areas / 2, areas / 4), w_c)
    m = np.zeros(fg.mesh.num_vertices)
    np.add.at(m, fg.mesh.faces[:, 0], w_a)
    np.add.at(m, fg.mesh.faces[:, 1], w_b)
    np.add.at(m, fg.mesh.faces[:, 2], w_c)
    return LumpedMass(m=m, total_area=float(np.sum(areas)))


def cotan_laplacian(fg: FaceGeometry) -> LaplaceOperator:
    """Off-diagonal -(cot a + cot b)/2 per edge, diagonal minus the row sum."""
    _require_nondegenerate(fg)
    n = fg.mesh.num_vertices
    # cot[0] is the cotangent at corner a, opposite edge (b, c), and so on
    f = fg.mesh.faces
    rows = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    cols = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
    w = 0.5 * fg.cot.ravel()
    off = sparse.coo_matrix(
        (np.concatenate([-w, -w]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    ).tocsr()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    lap = (off + sparse.diags(diag)).tocsr()
    return LaplaceOperator(matrix=lap)


def vertex_normals_and_projected_areas(fg: FaceGeometry):
    """Unit vertex normals and the projected dual areas |sum A_f n_f| / 3.

    The normal is the area-weighted average of incident face outward
    normals.  The projected area is exactly the normal component of the
    discrete volume gradient at the vertex, which makes it the quadrature
    weight under which sum_i m~_i (lap H)_i vanishes identically (the
    discrete divergence theorem behind volume conservation).
    """
    acc = np.zeros((fg.mesh.num_vertices, 3))
    w = fg.normals * fg.areas[:, None]
    for k in range(3):
        np.add.at(acc, fg.mesh.faces[:, k], w)
    nrm = np.linalg.norm(acc, axis=1)
    if (nrm == 0).any():
        raise MeshError("vertex with vanishing normal")
    return acc / nrm[:, None], nrm / 3.0


def angle_defects(fg: FaceGeometry) -> np.ndarray:
    """2*pi minus the sum of incident triangle angles, per vertex."""
    defect = np.full(fg.mesh.num_vertices, 2.0 * np.pi)
    for k in range(3):
        np.subtract.at(defect, fg.mesh.faces[:, k], fg.angles[k])
    return defect


def curvature_field(
    fg: FaceGeometry, mass: LumpedMass, lap: LaplaceOperator
) -> CurvatureField:
    nu, m_proj = vertex_normals_and_projected_areas(fg)
    mean_curv_vec = (lap.matrix @ fg.mesh.vertices) / mass.m[:, None]
    H = np.einsum("ij,ij->i", mean_curv_vec, nu)
    K = angle_defects(fg) / mass.m
    # dimension-2 identities; discretization noise in H^2/2 - 2K is clamped
    # at zero so the tracefree energy stays a nonnegative Lyapunov candidate,
    # and |A|^2 is rebuilt from the clamped value to keep Ao_sq = A_sq - H^2/2
    # exact pointwise
    Ao_sq = np.maximum(0.5 * H**2 - 2.0 * K, 0.0)
    A_sq = Ao_sq + 0.5 * H**2
    # lap H is divided by the projected dual area, not the Voronoi one:
    # the flow velocity then satisfies sum_i m~_i (lap H)_i = 0 exactly,
    # so volume drift under the explicit stepper is second order in dt
    lapH = -(lap.matrix @ H) / m_proj
    return CurvatureField(normal=nu, H=H, K=K, A_sq=A_sq, Ao_sq=Ao_sq, lapH=lapH)


def integrate(field: np.ndarray, mass: LumpedMass) -> float:
    """Discrete integral sum(u_i m_i) with pairwise (reproducible) summation."""
    field = np.asarray(field)
    if field.shape != mass.m.shape:
        raise ValueError("field length must match vertex count")
    return float(np.sum(field * mass.m))


def dirichlet_energy(field: np.ndarray, lap: LaplaceOperator) -> float:
    """u' L u, the discrete integral of |grad u|^2; nonnegative."""
    field = np.asarray(field)
    if field.shape[0] != lap.matrix.shape[0]:
        raise ValueError("field length must match vertex count")
    return float(field @ (lap.matrix @ field))


def enclosed_volume(mesh: TriangleMesh) -> float:
    """Signed volume (1/6) sum <a, b x c>; positive for outward orientation."""
    va, vb, vc = face_corner_vertices(mesh)
    return float(np.sum(np.einsum("ij,ij->i", va, np.cross(vb, vc))) / 6.0)


def volume_cubic(mesh: TriangleMesh, nu: np.ndarray):
    """Coefficients (c0, c1, c2, c3) of the exact cubic
    enclosed_volume(x + s nu) = c0 + c1 s + c2 s^2 + c3 s^3, from one pass
    over the faces; c0 is the enclosed volume itself."""
    va, vb, vc = face_corner_vertices(mesh)
    f = mesh.faces
    na, nb, nc = nu[f[:, 0]], nu[f[:, 1]], nu[f[:, 2]]

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
