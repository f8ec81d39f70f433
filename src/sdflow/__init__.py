"""Numerical laboratory for surface diffusion flow on closed triangle meshes.

Submodules:
    mesh        triangle mesh container, validation, OFF/OBJ I/O
    generators  parametric initial data (icospheres, perturbed spheres,
                dumbbells, ellipsoids, tori)
    geometry    lumped mass, cotangent Laplacian, curvature fields, integrals
    flow        explicit and semi-implicit time steppers and the run loop
    monitors    per-step diagnostics, monotonicity/dissipation audits,
                decay fits, concentration quantity
    blowup      concentration-event detection and parabolic frame rescaling
    runio       run configs, diagnostics CSV, snapshots, summaries
    cli         command-line front end (gen / run / analyze / blowup)
"""

import os

# Honor SDFLOW_THREADS before any numerics library spins up its pools.
_threads = os.environ.get("SDFLOW_THREADS", "").strip()
if _threads.isdigit() and int(_threads) > 0:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"
