"""The test suite's own settings: pytest's filterwarnings in pyproject.toml
turns every warning into an error, and that must not take down the run
when a test tool warns while it reports a failure.  And a lint the suite
runs itself, with no linter installed: no module of the package keeps an
import it does not use, every module sums its length-3 vectors in
mesh's fixed orders, only mesh.py reads the transposed faces,
only face_geometry copies vertex vectors from (n, 3) to (3, n) rows,
no module imports scipy.special or uses a private scipy name, only
mesh.py formats OFF face lines or calls np.loadtxt, monitors.py names
no numpy function that BLAS or LAPACK computes, flow.cg's inner
products do not conjugate, and no module builds a sparse pattern of its
own."""

import ast
import glob
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# every module of the package, each lint's input
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "sdflow", "*.py")))

FAILING_AND_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # hypothesis's failure report imports libcst, which warns on import
    pytest.importorskip("libcst")
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sample.py").write_text(textwrap.dedent(FAILING_AND_PASSING))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1


def unused_imports(source: str) -> list:
    """The names that the module-level import statements of `source` bind
    and that nothing else in it reads; `from __future__` imports excepted."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in used)


def test_unused_imports_finds_a_stale_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: d"]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_module_level_import(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def numpy_ordered_reductions(source: str) -> list:
    """The np.einsum and np.cross calls of `source`, and its np.linalg.norm
    calls with an axis argument (a 1-D norm is BLAS's dot, which flow.cg
    and step_semi_implicit take for their residual norms)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        axis = len(node.args) >= 3 or any(k.arg == "axis" for k in node.keywords)
        if name in ("np.einsum", "np.cross") or (name == "np.linalg.norm" and axis):
            found.append(f"line {node.lineno}: {name}")
    return found


def test_numpy_ordered_reductions_finds_each_call():
    source = (
        "a = np.einsum('ij,ij->i', u, v)\n"
        "b = np.cross(u, v)\n"
        "c = np.linalg.norm(u, axis=1)\n"
        "d = np.linalg.norm(u, None, 1)\n"
        "e = np.linalg.norm(r)\n"
    )
    assert numpy_ordered_reductions(source) == [
        "line 1: np.einsum",
        "line 2: np.cross",
        "line 3: np.linalg.norm",
        "line 4: np.linalg.norm",
    ]


# numpy picks the summation order of these calls (einsum's, for one, changes
# with its operands' memory layout), so every module sums its x, y, z terms
# in the orders mesh._dot and mesh._sq_norm fix
@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_per_state_modules_fix_their_summation_order(path):
    with open(path, encoding="utf-8") as fh:
        assert numpy_ordered_reductions(fh.read()) == []


NON_MESH_MODULES = [p for p in MODULES if os.path.basename(p) != "mesh.py"]


# mesh.mesh_topology builds MeshTopology.corner_index from faces.T once per
# connectivity; every other module reads that index
@pytest.mark.parametrize("path", NON_MESH_MODULES, ids=os.path.basename)
def test_only_mesh_reads_the_transposed_faces(path):
    with open(path, encoding="utf-8") as fh:
        assert ".faces.T" not in fh.read()


def transposed_copies(source: str) -> list:
    """The np.ascontiguousarray(<x>.T) calls of `source`, as their argument;
    the transposed faces, connectivity rather than vectors, excepted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.ascontiguousarray":
            arg = node.args[0] if node.args else None
            if isinstance(arg, ast.Attribute) and arg.attr == "T":
                if not ast.unparse(arg.value).endswith("faces"):
                    found.append(ast.unparse(arg))
    return found


def test_transposed_copies_finds_each_call():
    source = (
        "a = np.ascontiguousarray(mesh.vertices.T)\n"
        "b = np.ascontiguousarray((acc / nrm).T).take(i, axis=1)\n"
        "c = np.ascontiguousarray(faces.T, dtype=np.intp)\n"
        "d = np.ascontiguousarray(x)\n"
    )
    assert transposed_copies(source) == ["mesh.vertices.T", "(acc / nrm).T"]


# a state's vertex vectors are (3, n) rows from face_geometry's one copy of
# the positions on; they go back to (n, 3) only where a step writes positions
def test_only_face_geometry_copies_vectors_into_rows():
    found = []
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            found += [(os.path.basename(path), arg) for arg in transposed_copies(fh.read())]
    assert found == [("mesh.py", "mesh.vertices.T")]


def scipy_special_imports(source: str) -> list:
    """The import statements of `source`, at any depth, that load
    scipy.special or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.special" or name.startswith("scipy.special.") for name in names):
            found.append(node.lineno)
    return [f"line {lineno}" for lineno in sorted(found)]


def test_scipy_special_imports_finds_each_form():
    source = (
        "import scipy.special\n"
        "def f():\n"
        "    from scipy.special import lpmv\n"
        "from scipy import special as sp\n"
        "import scipy.special._ufuncs\n"
        "from scipy import sparse\n"
        "import scipy.specialist\n"
    )
    assert scipy_special_imports(source) == ["line 1", "line 3", "line 4", "line 5"]


# generators.real_sph_harm needs no special function (test_generators.py
# checks it against scipy.special to 1e-13), so a perturbed-sphere set-up
# loads only numpy and scipy.sparse
@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_module_imports_scipy_special(path):
    with open(path, encoding="utf-8") as fh:
        assert scipy_special_imports(fh.read()) == []


def private_scipy_names(source: str) -> list:
    """The imports of `source`, at any depth, that name a `_`-prefixed
    module or member under scipy, and its `._x` attributes on a name that
    a scipy import bound."""
    found, bound = [], set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [(f"{node.module}.{a.name}", a.asname or a.name) for a in node.names]
        else:
            continue
        names = [(name, local) for name, local in names if name.split(".")[0] == "scipy"]
        bound.update(local for _, local in names)
        if any(part.startswith("_") for name, _ in names for part in name.split(".")):
            found.append((node.lineno, ast.unparse(node)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append((node.lineno, ast.unparse(node)))
    return [f"line {lineno}: {text}" for lineno, text in sorted(found)]


def test_private_scipy_names_finds_each_form():
    source = (
        "from scipy.sparse import _sparsetools\n"
        "import scipy.sparse._sparsetools\n"
        "from scipy.sparse._sparsetools import coo_tocsr\n"
        "from scipy import sparse\n"
        "def f():\n"
        "    import scipy.sparse as sp\n"
        "    return sparse._sparsetools, sp._base.x, scipy.sparse._csr\n"
        "import numpy as np\n"
        "import numpy._core\n"
        "np._core, sparse.csr_array, x._private\n"
    )
    assert private_scipy_names(source) == [
        "line 1: from scipy.sparse import _sparsetools",
        "line 2: import scipy.sparse._sparsetools",
        "line 3: from scipy.sparse._sparsetools import coo_tocsr",
        "line 7: scipy.sparse._csr",
        "line 7: sp._base",
        "line 7: sparse._sparsetools",
    ]


# scipy's private modules and members may change in any release; src uses
# scipy only through its public API
@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_module_uses_a_private_scipy_name(path):
    with open(path, encoding="utf-8") as fh:
        assert private_scipy_names(fh.read()) == []


# mesh.py holds the one OFF codec: the face-line format its writer caches
# per connectivity and the np.loadtxt blocks its reader parses
@pytest.mark.parametrize("path", NON_MESH_MODULES, ids=os.path.basename)
def test_only_mesh_formats_and_parses_off(path):
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    assert "3 %d %d %d" not in source
    assert "np.loadtxt" not in source


# no module compares face arrays: whether a loaded mesh shares a
# connectivity is decided by mesh.loads_off recognizing the face block
# save_off wrote
@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_only_mesh_compares_faces(path):
    with open(path, encoding="utf-8") as fh:
        assert "np.array_equal(" not in fh.read()


# the numpy names whose arithmetic is BLAS's or LAPACK's; np.linalg stands for
# every function under it
BLAS_BACKED = ("np.dot", "np.vdot", "np.inner", "np.matmul", "np.einsum", "np.polyfit", "np.linalg")


def blas_backed_names(source: str) -> list:
    """The BLAS_BACKED names that `source` reads, called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and ast.unparse(node) in BLAS_BACKED:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_blas_backed_names_finds_each_form():
    source = (
        "a = np.dot(u, v)\n"
        "b = np.linalg.norm(u) + np.linalg.lstsq(m, u)[0]\n"
        "fit = np.polyfit\n"
        "c = np.sum(u * v) + np.add.reduceat(u, i)\n"
        "d = np.einsum('i,i', u, v) + np.inner(u, v) + np.vdot(u, v) + np.matmul(m, u)\n"
    )
    assert sorted(blas_backed_names(source)) == [
        "line 1: np.dot",
        "line 2: np.linalg",
        "line 2: np.linalg",
        "line 3: np.polyfit",
        "line 5: np.einsum",
        "line 5: np.inner",
        "line 5: np.matmul",
        "line 5: np.vdot",
    ]


# OpenBLAS picks a dot's or a solve's kernel, and with it the order of its
# sums, by CPU, so monitors sums with numpy's own reductions: then every
# value it reports is the same on every x86-64 CPU.  This lint sees only
# names: `a @ b` is BLAS for two dense arrays and scipy's own loop for a
# sparse one, which syntax cannot tell apart, so the OPENBLAS_CORETYPE
# tests of test_cli.py are the guard on what monitors computes.
def test_monitors_names_no_blas_backed_function():
    with open(os.path.join(ROOT, "src", "sdflow", "monitors.py"), encoding="utf-8") as fh:
        assert blas_backed_names(fh.read()) == []


CONJUGATING = ("np.vdot", "np.conj", "np.conjugate", "conj", "conjugate")


def cg_products(source: str) -> tuple:
    """The np.dot calls in the body of `source`'s function cg, and the
    conjugating names it reads (np.vdot, np.conj, np.conjugate, a .conj or
    .conjugate method)."""
    func = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "cg"
    )
    dots, conjugating = [], []
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.dot":
            dots.append(f"line {node.lineno}: np.dot")
        if isinstance(node, ast.Attribute):
            name = ast.unparse(node)
            if name in CONJUGATING or node.attr in CONJUGATING:
                conjugating.append(f"line {node.lineno}: {name}")
    return dots, conjugating


def test_cg_products_finds_each_form():
    source = (
        "def other(r):\n"
        "    return np.vdot(r, r)\n"
        "def cg(r, z):\n"
        "    a = np.dot(r, z)\n"
        "    b = np.vdot(r, z) + np.conj(r) @ z + np.conjugate(r) @ z\n"
        "    return a + r.conj() @ z + r.conjugate() @ z\n"
    )
    dots, conjugating = cg_products(source)
    assert dots == ["line 4: np.dot"]
    assert sorted(conjugating) == [
        "line 5: np.conj",
        "line 5: np.conjugate",
        "line 5: np.vdot",
        "line 6: r.conj",
        "line 6: r.conjugate",
    ]


# step_semi_implicit solves the complex symmetric M + i sqrt(dt) L with
# flow.cg: the loop is COCG only while its inner products do not conjugate
def test_flow_cg_takes_unconjugated_products():
    with open(os.path.join(ROOT, "src", "sdflow", "flow.py"), encoding="utf-8") as fh:
        dots, conjugating = cg_products(fh.read())
    assert len(dots) == 2 and conjugating == []


PATTERN_BUILDERS = ("diags", "eliminate_zeros", "tocsr", "coo_matrix")


def pattern_builders(source: str) -> list:
    """The PATTERN_BUILDERS names that `source` reads as an attribute
    (sparse.diags, .eliminate_zeros, .tocsr, sparse.coo_matrix) or imports
    from a module, called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in PATTERN_BUILDERS:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        if isinstance(node, ast.ImportFrom):
            found += [
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name in PATTERN_BUILDERS
            ]
    return found


def test_pattern_builders_finds_each_form():
    source = (
        "C = (sparse.diags(m) + L).tocsr()\n"
        "lap.eliminate_zeros()\n"
        "off = sparse.coo_matrix((w, (i, j)), shape=(n, n))\n"
        "from scipy.sparse import coo_matrix, diags as d, csr_matrix\n"
        "build = scipy.sparse.coo_matrix\n"
        "ok = sparse.csr_matrix((data, topo.indices, topo.indptr)).diagonal()\n"
    )
    assert sorted(pattern_builders(source)) == [
        "line 1: (sparse.diags(m) + L).tocsr",
        "line 1: sparse.diags",
        "line 2: lap.eliminate_zeros",
        "line 3: sparse.coo_matrix",
        "line 4: import coo_matrix",
        "line 4: import diags",
        "line 5: scipy.sparse.coo_matrix",
    ]


# one CSR pattern per connectivity: every sparse matrix of the package is
# built on MeshTopology's index arrays, so none is assembled from triplets
# or a diagonal, converted to CSR, or stripped of its exact zeros
@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_module_builds_a_sparse_pattern_of_its_own(path):
    with open(path, encoding="utf-8") as fh:
        assert pattern_builders(fh.read()) == []
