"""Closed oriented triangle meshes: container, per-connectivity index arrays,
the per-face pass (with each face's corner positions), validation, OFF/OBJ I/O."""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

# Scale-free degeneracy guard: a face is degenerate when its area falls
# below this factor times the squared longest edge of the mesh.
DEGENERATE_AREA_FACTOR = 1e-12


class MeshError(Exception):
    """Invalid mesh topology, geometry, or file content."""


@dataclass(frozen=True)
class TriangleMesh:
    """Vertex positions and face index triples, counterclockwise from outside.

    Instances are immutable: the arrays are locked after construction and
    safe to share across threads.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshError("faces must be an (m, 3) array")
        if len(f) and (f.min() < 0 or f.max() >= len(v)):
            raise MeshError("face index out of range")
        if len(f) and (
            (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        ).any():
            raise MeshError("face with repeated vertex index")
        v.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def half_edges(self) -> np.ndarray:
        """Directed edges, three per face, shape (3F, 2)."""
        f = self.faces
        return np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])

    @cached_property
    def edges(self) -> np.ndarray:
        """Unique undirected edges as sorted index pairs, shape (E, 2)."""
        return np.unique(np.sort(self.half_edges, axis=1), axis=0)

    @cached_property
    def topology(self) -> "MeshTopology":
        return mesh_topology(self.faces, self.num_vertices)

    def with_vertices(self, vertices: np.ndarray) -> "TriangleMesh":
        """Same connectivity, new positions; the new mesh shares this
        mesh's MeshTopology object."""
        mesh = TriangleMesh(vertices, self.faces)
        mesh.__dict__["topology"] = self.topology
        return mesh


@dataclass(frozen=True)
class MeshTopology:
    """Index arrays fixed by the faces, built once per connectivity; all
    are int32 and read-only.

    The CSR pattern of the cotan L holds every edge (both directions) and
    the diagonal of every vertex on a face, rows and columns sorted.  The
    6F corner contributions to L are the edge (b, c) opposite corners
    a, b, c of every face, then the same edges as (c, b), in the order
    of FaceGeometry.cot.ravel() twice.
    """

    indptr: np.ndarray  # (n + 1,)
    indices: np.ndarray  # (nnz,)
    slots: np.ndarray  # (6F,) data slot of each corner contribution
    diagonal: np.ndarray  # data slot of L_ii for each vertex in rows
    offdiag: np.ndarray  # data slots of the off-diagonals, in CSR order
    row_starts: np.ndarray  # start of each vertex's row in offdiag
    rows: np.ndarray  # the vertices that lie on a face, ascending

    def __post_init__(self):
        for name, a in list(vars(self).items()):
            a = np.asarray(a, dtype=np.int32)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def mesh_topology(faces: np.ndarray, n: int) -> MeshTopology:
    f = faces.T
    b, c = np.roll(f, -1, axis=0).ravel(), np.roll(f, 1, axis=0).ravel()
    rows = np.flatnonzero(np.bincount(f.ravel(), minlength=n))
    keys = np.concatenate([b * n + c, c * n + b, rows * (n + 1)])
    pattern, inverse = np.unique(keys, return_inverse=True)
    row, col = np.divmod(pattern, n)
    offdiag = np.flatnonzero(row != col)
    off_per_row = np.bincount(row[offdiag], minlength=n)
    return MeshTopology(
        indptr=np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n))]),
        indices=col,
        slots=inverse[: 2 * b.size],
        diagonal=inverse[2 * b.size :],
        offdiag=offdiag,
        row_starts=(np.cumsum(off_per_row) - off_per_row)[rows],
        rows=rows,
    )


@dataclass(frozen=True)
class MeshReport:
    is_closed: bool
    is_oriented: bool
    euler_characteristic: int
    genus: int
    min_face_area: float
    min_edge_length: float
    max_edge_length: float
    aspect_quality: float

    def summary(self) -> str:
        return (
            f"closed={self.is_closed} oriented={self.is_oriented} "
            f"chi={self.euler_characteristic} genus={self.genus} "
            f"min_area={self.min_face_area:.3g} "
            f"edge=[{self.min_edge_length:.3g},{self.max_edge_length:.3g}] "
            f"quality={self.aspect_quality:.3g}"
        )


def corner_sum(mesh: TriangleMesh, values) -> np.ndarray:
    """Sum a (3, F) or (3, F, k) per-corner array onto the vertices, the
    scatter counterpart of FaceGeometry.corners.  Each vertex adds its
    corners a, then b, then c, in face order, as three np.add.at passes do."""
    idx = mesh.faces.T.ravel()
    columns = np.reshape(values, (idx.size, -1)).T
    sums = [np.bincount(idx, col, mesh.num_vertices) for col in columns]
    return sums[0] if np.ndim(values) == 2 else np.column_stack(sums)


@dataclass(frozen=True)
class FaceGeometry:
    """Per-face geometry of one vertex state, from a single pass.

    Rows of the (3, F) arrays belong to the corners a, b, c of every face,
    or to its edges ab, bc, ca.  Each corner's cotangent and angle come from
    that corner's own cross product and dot product; area and unit normal
    come from corner a's cross product.
    """

    mesh: TriangleMesh
    corners: np.ndarray  # (3, F, 3) positions of corners a, b, c
    areas: np.ndarray  # (F,)
    normals: np.ndarray  # (F, 3) unit outward
    cot: np.ndarray  # (3, F) cotangent at corners a, b, c
    angles: np.ndarray  # (3, F) interior angle at corners a, b, c
    sq_lengths: np.ndarray  # (3, F) squared length of edges ab, bc, ca

    @property
    def total_area(self) -> float:
        return float(np.sum(self.areas))

    @property
    def h_min(self) -> float:
        """Shortest edge; every edge lies on a face, so this equals the
        minimum over the unique edges exactly (h_max likewise)."""
        return float(np.sqrt(self.sq_lengths.min()))

    @property
    def h_max(self) -> float:
        return float(np.sqrt(self.sq_lengths.max()))

    @property
    def qualities(self) -> np.ndarray:
        """4*sqrt(3)*area / sum of squared edge lengths; 1 for equilateral."""
        l2 = self.sq_lengths[0] + self.sq_lengths[1] + self.sq_lengths[2]
        with np.errstate(invalid="ignore", divide="ignore"):
            q = 4.0 * np.sqrt(3.0) * self.areas / l2
        return np.where(l2 > 0, q, 0.0)

    @property
    def degenerate(self) -> bool:
        """Some face area falls below DEGENERATE_AREA_FACTOR * h_max^2.
        Non-finite geometry compares false and is left to the caller."""
        return bool((self.areas < DEGENERATE_AREA_FACTOR * self.h_max**2).any())


def face_geometry(mesh: TriangleMesh) -> FaceGeometry:
    """Corner positions, areas, normals, corner cotangents and angles,
    squared edge lengths."""
    corners = mesh.vertices.take(mesh.faces.T, axis=0)
    a, b, c = corners
    ab, bc, ca = b - a, c - b, a - c
    # the two edge vectors leaving corners a, b, c; negation is exact, so
    # -ca equals c - a bit for bit
    pairs = ((ab, -ca), (bc, -ab), (ca, -bc))
    crosses = [np.cross(u, v) for u, v in pairs]
    nrm = np.array([np.linalg.norm(cr, axis=1) for cr in crosses])
    dot = np.array([np.einsum("ij,ij->i", u, v) for u, v in pairs])
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = crosses[0] / nrm[0][:, None]
        cot = dot / nrm
    return FaceGeometry(
        mesh=mesh,
        corners=corners,
        areas=0.5 * nrm[0],
        normals=normals,
        cot=cot,
        angles=np.arctan2(nrm, dot),
        sq_lengths=np.array([np.sum(e**2, axis=1) for e in (ab, bc, ca)]),
    )


def validate(mesh: TriangleMesh) -> MeshReport:
    """Topology and quality report; failures are reported, not raised."""
    # imported here: of the commands, only `sdflow gen` validates, and a
    # run need not load csgraph (about 1 MB)
    from scipy.sparse.csgraph import connected_components

    topo = mesh.topology
    # the faces' use count of each directed edge; the off-diagonals of the
    # L pattern are every edge in both directions
    uses = np.bincount(topo.slots[: 3 * mesh.num_faces], minlength=len(topo.indices))
    uses = uses[topo.offdiag]
    # oriented: no directed edge is repeated, and no face (same unordered
    # triple) either
    repeated_face = len(np.unique(np.sort(mesh.faces, axis=1), axis=0)) != mesh.num_faces
    is_oriented = bool((uses <= 1).all()) and not repeated_face
    # closed manifold: every undirected edge borders exactly two faces whose
    # directed copies run oppositely (each direction exactly once)
    is_closed = bool((uses == 1).all())
    n_e = len(topo.offdiag) // 2
    chi = mesh.num_vertices - n_e + mesh.num_faces
    # total genus over the connected components of the vertices on faces;
    # an isolated vertex is a component of its own, and is left out
    pattern = sparse.csr_matrix(
        (np.ones(len(topo.indices)), topo.indices, topo.indptr),
        shape=(mesh.num_vertices, mesh.num_vertices),
    )
    k = connected_components(pattern, directed=False)[0] - (mesh.num_vertices - len(topo.rows))
    chi_f = len(topo.rows) - n_e + mesh.num_faces
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
        aspect_quality=0.0 if empty else float(fg.qualities.min()),
    )


def rescale(mesh: TriangleMesh, center, factor: float) -> TriangleMesh:
    """Map every vertex x to (x - center) * factor; connectivity unchanged."""
    if not factor > 0:
        raise ValueError("rescale factor must be positive")
    center = np.asarray(center, dtype=np.float64)
    return mesh.with_vertices((mesh.vertices - center) * factor)


# ---------------------------------------------------------------------------
# File formats.  OFF is the canonical snapshot format (ASCII, 17 significant
# digits, counts line "V F 0").  OBJ is import-only.
# ---------------------------------------------------------------------------


def _content_lines(lines):
    """The lines, each cut at its first `#` and stripped, without the blank
    ones.  Lazy: a line is read only when the next content line is asked
    for."""
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


_OFF_INT = re.compile(r"[+-]?[0-9]+")


def _read_block(lines, dtype, ncols: int, nrows: int) -> np.ndarray:
    """The first ncols whitespace-separated columns of the next nrows
    content lines of `lines`, in one np.loadtxt call.  loadtxt drops `#`
    comments and blank lines itself, and takes no line from an iterator
    past the last row it reads.  Fewer rows come back when the lines run
    out; raises ValueError on a short or unparsable row."""
    with warnings.catch_warnings():
        # loadtxt warns that skipped comment and blank lines do not count
        # toward max_rows, and that a block without rows holds no data;
        # an OFF block means both
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            lines, dtype=dtype, comments="#", usecols=range(ncols), ndmin=2, max_rows=nrows
        )


def _body_error(text: str, nv: int, nf: int) -> MeshError:
    """The error of an OFF body that np.loadtxt rejected, as the per-line
    reader names it: a file with fewer than nv + nf content lines after the
    counts line is truncated; otherwise the vertex block is malformed if it
    fails alone; otherwise the first bad face line decides: a token among
    its first four that is no integer makes it malformed; fewer than four
    integers, or a count other than 3, a non-triangle face."""
    body = list(_content_lines(text.splitlines()))[2:]
    if len(body) < nv + nf:
        return MeshError("truncated OFF file")
    try:
        _read_block(body[:nv], np.float64, 3, nv)
    except ValueError:
        return MeshError("malformed OFF vertex line")
    for line in body[nv : nv + nf]:
        toks = line.split()[:4]
        if not all(_OFF_INT.fullmatch(t) for t in toks):
            break
        if len(toks) < 4 or int(toks[0]) != 3:
            return MeshError("non-triangle face")
    return MeshError("malformed OFF face line")


def loads_off(text: str) -> TriangleMesh:
    """Parse OFF text: the header "OFF", a counts line "V F [E]", V vertex
    lines and F face lines "3 i j k".

    `#` starts a comment anywhere, blank lines are skipped, and lines after
    the V + F body are ignored, as are tokens after a vertex line's three
    coordinates or a face line's "3 i j k" (colors).  Each block is read
    by one np.loadtxt call, so numbers follow numpy's grammar: coordinates
    are decimal floats, nan and inf included, read bit for bit as float()
    reads them; indices are decimal int64.  Spellings only Python reads,
    such as digit-group underscores ("1_0") or non-ASCII digits, make a
    malformed line; OFF writers emit neither.
    """
    lines = iter(text.splitlines())
    head = list(itertools.islice(_content_lines(lines), 2))
    if not head:
        raise MeshError("empty OFF file")
    if head[0].upper() != "OFF":
        raise MeshError("missing OFF header")
    try:
        counts = [int(tok) for tok in head[1].split()]
        nv, nf = counts[0], counts[1]
    except (IndexError, ValueError) as exc:
        raise MeshError("malformed OFF counts line") from exc
    if nv < 0 or nf < 0:
        raise MeshError("malformed OFF counts line")
    try:
        vertices = _read_block(lines, np.float64, 3, nv)
        faces = _read_block(lines, np.int64, 4, nf)
    except ValueError as exc:
        raise _body_error(text, nv, nf) from exc
    if len(vertices) < nv or len(faces) < nf:
        raise MeshError("truncated OFF file")
    if (faces[:, 0] != 3).any():
        raise MeshError("non-triangle face")
    return TriangleMesh(vertices, faces[:, 1:])


def loads_obj(text: str) -> TriangleMesh:
    vertices = []
    faces = []
    for line in _content_lines(text.splitlines()):
        toks = line.split()
        if toks[0] == "v":
            try:
                vertices.append([float(t) for t in toks[1:4]])
            except ValueError as exc:
                raise MeshError("malformed OBJ vertex line") from exc
        elif toks[0] == "f":
            refs = toks[1:]
            if len(refs) != 3:
                raise MeshError("non-triangle face")
            try:
                idx = [int(r.split("/")[0]) - 1 for r in refs]
            except ValueError as exc:
                raise MeshError("malformed OBJ face line") from exc
            faces.append(idx)
        # other record types (vn, vt, mtl, ...) are ignored on import
    if not vertices or not faces:
        raise MeshError("OBJ file without triangles")
    return TriangleMesh(
        np.array(vertices), np.array(faces, dtype=np.int64).reshape(-1, 3)
    )


def load_mesh(data, fmt: str) -> TriangleMesh:
    """Parse mesh bytes in the declared format ("off" or "obj")."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    fmt = fmt.lower()
    if fmt == "off":
        return loads_off(data)
    if fmt == "obj":
        return loads_obj(data)
    raise MeshError(f"unknown mesh format: {fmt}")


def dumps_off(mesh: TriangleMesh) -> str:
    nv, nf = mesh.num_vertices, mesh.num_faces
    return (
        f"OFF\n{nv} {nf} 0\n"
        + ("%.17g %.17g %.17g\n" * nv) % tuple(mesh.vertices.ravel().tolist())
        + ("3 %d %d %d\n" * nf) % tuple(mesh.faces.ravel().tolist())
    )


def save_off(mesh: TriangleMesh, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_off(mesh))


def load_mesh_path(path) -> TriangleMesh:
    path = str(path)
    fmt = "obj" if path.lower().endswith(".obj") else "off"
    with open(path, "rb") as fh:
        return load_mesh(fh.read(), fmt)
