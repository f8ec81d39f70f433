#!/usr/bin/env python3
"""Refinement study on icospheres: pointwise curvature accuracy, Gauss-Bonnet,
tracefree floor, and the stationarity residual across subdivisions."""

import argparse
import math

import sdflow  # first, so SDFLOW_THREADS caps the pools numpy starts on import
import numpy as np
from sdflow.flow import FlowState
from sdflow.generators import make_icosphere
from sdflow.geometry import integrate
from sdflow.monitors import diagnostics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--min-subdiv", type=int, default=2)
    parser.add_argument("--max-subdiv", type=int, default=5)
    args = parser.parse_args()

    print("sub     V   mean(H)R/2   max|H-2/R|R   gauss_bonnet_err   "
          "int|Ao|^2    dirichlet(H)   residual_raw")
    for s in range(args.min_subdiv, args.max_subdiv + 1):
        mesh = make_icosphere(args.radius, s)
        state = FlowState(mesh)
        cf = state.curvature
        gb = abs(integrate(cf.K, state.mass) - 4 * math.pi) / (4 * math.pi)
        rec = diagnostics(state)
        print(
            f"{s:3d} {mesh.num_vertices:6d}   "
            f"{cf.H.mean() * args.radius / 2:.8f}   "
            f"{np.abs(cf.H - 2 / args.radius).max() * args.radius:.3e}     "
            f"{gb:.3e}          "
            f"{rec.tracefree_l2:.3e}    "
            f"{rec.gradH_l2:.3e}      "
            f"{math.sqrt(rec.lapH_l2):.4e}"
        )


if __name__ == "__main__":
    main()
