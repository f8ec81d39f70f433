"""The test suite's own settings: pytest's filterwarnings in pyproject.toml
turns every warning into an error, and that must not take down the run
when a test tool warns while it reports a failure.  And a lint the suite
runs itself, with no linter installed: no module of the package keeps an
import it does not use, every module sums its length-3 vectors in
mesh's fixed orders, only mesh.py reads the transposed faces,
only face_geometry copies vertex vectors from (n, 3) to (3, n) rows,
no module imports scipy.special or uses a private scipy name, and only
mesh.py formats OFF face lines or calls np.loadtxt."""

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
    keeps so that it matches scipy's cg)."""
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


# generators.real_sph_harm does scipy.special's arithmetic itself
# (test_generators.py checks it bit for bit), so a perturbed-sphere set-up
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
