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

from . import g17

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
        v = _vertex_array(self.vertices)
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
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
        """Same connectivity, new positions, as many as this mesh has; the
        new mesh shares this mesh's faces array, checked when this mesh was
        built, and its MeshTopology object."""
        v = _vertex_array(vertices)
        if len(v) != self.num_vertices:
            raise MeshError("with_vertices needs one position per vertex of the mesh")
        v.setflags(write=False)
        mesh = object.__new__(TriangleMesh)
        mesh.__dict__.update(vertices=v, faces=self.faces, topology=self.topology)
        return mesh


def _vertex_array(vertices) -> np.ndarray:
    """The vertices as a contiguous (n, 3) float64 array."""
    v = np.ascontiguousarray(np.asarray(vertices, dtype=np.float64))
    if v.ndim != 2 or v.shape[1] != 3:
        raise MeshError("vertices must be an (n, 3) array")
    return v


@dataclass(frozen=True)
class MeshTopology:
    """Index arrays fixed by the faces, built once per connectivity, all
    read-only.  corner_index is C-contiguous intp, the index dtype numpy's
    take, bincount and ufunc.at use without a cast; the CSR arrays are int32.

    The CSR pattern of the cotan L holds every edge (both directions) and
    the diagonal of every vertex on a face, rows and columns sorted.  The
    6F corner contributions to L are the edge (b, c) opposite corners
    a, b, c of every face, then the same edges as (c, b), in the order
    of FaceGeometry.cot.ravel() twice.
    """

    corner_index: np.ndarray  # (3, F) vertex at corners a, b, c: FaceGeometry's rows
    indptr: np.ndarray  # (n + 1,)
    indices: np.ndarray  # (nnz,)
    slots: np.ndarray  # (6F,) data slot of each corner contribution
    diagonal: np.ndarray  # data slot of L_ii for each vertex in rows
    offdiag: np.ndarray  # data slots of the off-diagonals, in CSR order
    row_starts: np.ndarray  # start of each vertex's row in offdiag
    rows: np.ndarray  # the vertices that lie on a face, ascending

    def __post_init__(self):
        for name, a in list(vars(self).items()):
            a = np.asarray(a, dtype=np.intp if name == "corner_index" else np.int32)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def off_faces(self) -> str:
        """The face block of an OFF file, "3 i j k" lines in face order,
        formatted once: every snapshot and frame of a run writes it, and
        loads_off(..., like=) recognizes it."""
        f = self.corner_index
        return ("3 %d %d %d\n" * f.shape[1]) % tuple(f.T.ravel().tolist())


def mesh_topology(faces: np.ndarray, n: int) -> MeshTopology:
    f = np.ascontiguousarray(faces.T, dtype=np.intp)
    b, c = np.roll(f, -1, axis=0).ravel(), np.roll(f, 1, axis=0).ravel()
    rows = np.flatnonzero(np.bincount(f.ravel(), minlength=n))
    keys = np.concatenate([b * n + c, c * n + b, rows * (n + 1)])
    pattern, inverse = np.unique(keys, return_inverse=True)
    row, col = np.divmod(pattern, n)
    offdiag = np.flatnonzero(row != col)
    off_per_row = np.bincount(row[offdiag], minlength=n)
    return MeshTopology(
        corner_index=f,
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
    """Sum a (3, F) per-corner array onto the vertices: each vertex adds its
    corners a, then b, then c, in face order, as three np.add.at passes do."""
    return np.bincount(mesh.topology.corner_index.ravel(), np.ravel(values), mesh.num_vertices)


@dataclass(frozen=True)
class FaceGeometry:
    """Per-face geometry of one vertex state, from a single pass.

    Coordinate-major: `corners` is (3 xyz, 3 abc, F) and `normals` is
    (3 xyz, F), so the pass computes cross products, squared norms and
    dots on whole contiguous rows of F values.  Rows of the (3, F) arrays
    belong to the corners a, b, c of every face, or to its edges ab, bc, ca.
    Each corner's cotangent and angle come from that corner's own cross
    product and dot product; area and unit normal come from corner a's
    cross product.  A squared norm sums (x + y) + z and a dot product
    (x + z) + y, the orders of the row-major np.linalg.norm and np.einsum
    calls the pass replaced, so every run writes the bytes it wrote before.
    """

    mesh: TriangleMesh
    corners: np.ndarray  # (3, 3, F) coordinate x, y, z of corners a, b, c
    areas: np.ndarray  # (F,)
    normals: np.ndarray  # (3, F) unit outward, rows x, y, z
    cot: np.ndarray  # (3, F) cotangent at corners a, b, c
    angles: np.ndarray  # (3, F) interior angle at corners a, b, c
    sq_lengths: np.ndarray  # (3, F) squared length of edges ab, bc, ca

    # the pass's scalars, each reduced once; 0.0 and False without faces
    total_area: float
    h_min: float  # shortest edge; every edge lies on a face, so exact (h_max likewise)
    h_max: float
    quality: float  # smallest 4*sqrt(3)*area / sum of squared edge lengths; 1 is equilateral
    degenerate: bool  # some area below DEGENERATE_AREA_FACTOR * h_max^2 (non-finite: False)


# Row permutations of a corner or edge axis: row k goes to row k + 1 or
# k - 1 (mod 3).  _PREV is np.roll(_, 1, axis=0) as one fixed gather.
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]

# Vector helpers on coordinate-major arrays: the first axis holds x, y, z.
# Every module takes its 3-vector sums from these.  Each sums its three
# products in a fixed order, the order numpy 2.4's row-major calls used, so
# the outputs keep their bits: _sq_norm adds (x + y) + z like
# np.linalg.norm(axis=1) and np.sum(axis=1), _dot adds (x + z) + y like
# np.einsum("ij,ij->i").  _cross is np.cross's formula.
# They work in place where they can: a (3, 3, F) temporary is a fresh
# allocation of about 370 kB on an s4 sphere, and fewer of them make the
# explicit s4 step about 10 % faster.


def _cross(u, v):
    out = np.empty((3,) + u[0].shape)
    for k in range(3):
        i, j = _NEXT[k], _PREV[k]
        np.multiply(u[i], v[j], out=out[k])
        out[k] -= u[j] * v[i]
    return out


def _dot(u, v):
    s = u[0] * v[0]
    s += u[2] * v[2]
    s += u[1] * v[1]
    return s


def _sq_norm(u):
    s = u[0] * u[0]
    s += u[1] * u[1]
    s += u[2] * u[2]
    return s


def face_geometry(mesh: TriangleMesh) -> FaceGeometry:
    """Corner positions, areas, normals, corner cotangents and angles,
    squared edge lengths, on the coordinate-major rows FaceGeometry
    describes, and the scalars reduced from them.  The corners are gathered
    once, from a contiguous (3, V) copy of the vertices.  Every value equals,
    bit for bit, the row-major pass through np.cross, np.linalg.norm(axis=1)
    and np.einsum that it replaces: _sq_norm and _dot keep those calls'
    summation orders."""
    corners = np.ascontiguousarray(mesh.vertices.T).take(mesh.topology.corner_index, axis=1)
    # edges ab, bc, ca: (3 xyz, 3, F)
    edges = corners[:, _NEXT]
    edges -= corners
    # the two edge vectors leaving corners a, b, c are (ab, -ca), (bc, -ab),
    # (ca, -bc); negation is exact, so -ca equals c - a bit for bit
    back = edges[:, _PREV]
    np.negative(back, out=back)
    crosses = _cross(edges, back)
    nrm = _sq_norm(crosses)
    np.sqrt(nrm, out=nrm)
    dot = _dot(edges, back)
    areas, sq_lengths = 0.5 * nrm[0], _sq_norm(edges)
    l2 = sq_lengths[0] + sq_lengths[1] + sq_lengths[2]
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = crosses[:, 0] / nrm[0]
        cot = dot / nrm
        q = np.where(l2 > 0, 4.0 * np.sqrt(3.0) * areas / l2, 0.0)
    h_min = h_max = quality = 0.0
    if mesh.num_faces:
        h_min, h_max = float(np.sqrt(sq_lengths.min())), float(np.sqrt(sq_lengths.max()))
        quality = float(q.min())
    return FaceGeometry(
        mesh=mesh,
        corners=corners,
        areas=areas,
        normals=normals,
        cot=cot,
        angles=np.arctan2(nrm, dot),
        sq_lengths=sq_lengths,
        total_area=float(np.sum(areas)),
        h_min=h_min,
        h_max=h_max,
        quality=quality,
        degenerate=bool((areas < DEGENERATE_AREA_FACTOR * h_max**2).any()),
    )


def validate(mesh: TriangleMesh) -> MeshReport:
    """Topology and quality report; failures are reported, not raised."""
    # imported here: only `sdflow gen` and a run from a mesh file validate,
    # and a run from a generator need not load csgraph (about 1 MB)
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
    return MeshReport(
        is_closed=is_closed,
        is_oriented=is_oriented,
        euler_characteristic=int(chi),
        genus=int(genus),
        min_face_area=float(fg.areas.min()) if mesh.num_faces else 0.0,
        min_edge_length=fg.h_min,
        max_edge_length=fg.h_max,
        aspect_quality=fg.quality,
    )


def rescale(mesh: TriangleMesh, center, factor: float) -> TriangleMesh:
    """Map every vertex x to (x - center) * factor; connectivity unchanged."""
    if not factor > 0:
        raise ValueError("rescale factor must be positive")
    center = np.asarray(center, dtype=np.float64)
    return mesh.with_vertices((mesh.vertices - center) * factor)


# ---------------------------------------------------------------------------
# File formats.  OFF is the canonical snapshot format (ASCII, 17 significant
# digits, counts line "V F 0"); its face block is formatted once per
# MeshTopology.  OBJ is import-only.
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
_INT64 = np.iinfo(np.int64)


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
    integers, or a count other than 3, a non-triangle face.  With no such
    line, an index beyond int64 is out of range."""
    body = list(_content_lines(text.splitlines()))[2:]
    if len(body) < nv + nf:
        return MeshError("truncated OFF file")
    try:
        _read_block(body[:nv], np.float64, 3, nv)
    except ValueError:
        return MeshError("malformed OFF vertex line")
    beyond_int64 = False
    for line in body[nv : nv + nf]:
        toks = line.split()[:4]
        if not all(_OFF_INT.fullmatch(t) for t in toks):
            return MeshError("malformed OFF face line")
        if len(toks) < 4 or int(toks[0]) != 3:
            return MeshError("non-triangle face")
        beyond_int64 |= any(not _INT64.min <= int(t) <= _INT64.max for t in toks[1:])
    return MeshError("face index out of range" if beyond_int64 else "malformed OFF face line")


def loads_off(text: str, like: TriangleMesh | None = None) -> TriangleMesh:
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

    With `like`, a text shares like's faces and MeshTopology, as
    like.with_vertices(its vertices), only when it holds the face block
    save_off wrote: its counts line names like's V and F, and its V vertex
    lines are followed, right after a line break, by like's face block and
    nothing else.  That block is neither split nor parsed.  Every other
    text is parsed as it is without `like`, and gets a topology of its own.
    """
    block = "" if like is None else like.topology.off_faces
    cut = len(text) - len(block)
    if not (block and cut > 0 and text[cut - 1] == "\n" and text.endswith(block)):
        block, cut = "", len(text)
    # like's face block cut off; any other layout is parsed again without like
    lines = iter(text[:cut].splitlines())
    head = list(itertools.islice(_content_lines(lines), 2))
    if block and len(head) < 2:
        return loads_off(text)
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
    # nv + nf lines cannot fit in fewer characters; max_rows overflows past a C long
    if nv + nf > len(text):
        raise MeshError("truncated OFF file")
    try:
        vertices = _read_block(lines, np.float64, 3, nv)
        if block:
            same = (nv, len(vertices), nf) == (like.num_vertices, nv, like.num_faces)
            return like.with_vertices(vertices) if same and not list(lines) else loads_off(text)
        faces = _read_block(lines, np.int64, 4, nf)
    except ValueError as exc:
        raise _body_error(text, nv, nf) from exc
    if len(vertices) < nv or len(faces) < nf:
        raise MeshError("truncated OFF file")
    if (faces[:, 0] != 3).any():
        raise MeshError("non-triangle face")
    return TriangleMesh(vertices, faces[:, 1:])


def loads_obj(text: str) -> TriangleMesh:
    """Parse the `v x y z` and triangle `f i j k` records of OBJ text.

    A face index is 1-based, or, when negative, counts back from the last
    vertex read so far (-1 is that vertex); 0 is out of range.  Only the
    vertex part of an `i/t/n` reference is read."""
    vertices = []
    faces = []
    for line in _content_lines(text.splitlines()):
        toks = line.split()
        if toks[0] == "v":
            try:
                x, y, z = map(float, toks[1:4])
            except ValueError as exc:
                raise MeshError("malformed OBJ vertex line") from exc
            vertices.append((x, y, z))
        elif toks[0] == "f":
            refs = toks[1:]
            if len(refs) != 3:
                raise MeshError("non-triangle face")
            try:
                idx = [int(r.split("/")[0]) for r in refs]
            except ValueError as exc:
                raise MeshError("malformed OBJ face line") from exc
            faces.append([i - 1 if i >= 0 else len(vertices) + i for i in idx])
        # other record types (vn, vt, mtl, ...) are ignored on import
    if not vertices or not faces:
        raise MeshError("OBJ file without triangles")
    try:
        faces = np.array(faces, dtype=np.int64)
    except OverflowError as exc:
        raise MeshError("face index out of range") from exc
    return TriangleMesh(np.array(vertices), faces)


def _off_parts(mesh: TriangleMesh):
    """OFF text in parts, one at a time: the header with the counts line,
    the vertex block chunk by chunk, and the topology's face block.

    The vertex block is the lines "%.17g %.17g %.17g\n", byte for byte what
    Python's % writes, so a snapshot reads back bit for bit; g17.lines
    writes them with numpy.
    """
    yield f"OFF\n{mesh.num_vertices} {mesh.num_faces} 0\n"
    yield from g17.lines(mesh.vertices)
    yield mesh.topology.off_faces


def dumps_off(mesh: TriangleMesh) -> str:
    return "".join(_off_parts(mesh))


def save_off(mesh: TriangleMesh, path) -> None:
    """Write `mesh` as OFF text (_off_parts): the counts line, one vertex
    per line at %.17g, written chunk by chunk, and the cached face block."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_off_parts(mesh))


def is_obj_path(path) -> bool:
    """Whether load_mesh_path reads `path` as OBJ: its name ends in .obj,
    in any case."""
    return str(path).lower().endswith(".obj")


def load_mesh_path(path, like: TriangleMesh | None = None) -> TriangleMesh:
    """Read a UTF-8 mesh file: OBJ if is_obj_path, else OFF, with loads_off's
    `like`.  A reader error names the file: `<path>: <reason>`."""
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
        return loads_obj(text) if is_obj_path(path) else loads_off(text, like)
    except (MeshError, UnicodeDecodeError) as exc:
        raise MeshError(f"{path}: {exc}") from exc
