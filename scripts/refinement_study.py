#!/usr/bin/env python3
"""Refinement study on icospheres: pointwise curvature accuracy, Gauss-Bonnet,
tracefree floor, and the stationarity residual across subdivisions."""

import argparse
import math

import sdflow  # first, so SDFLOW_THREADS caps the pools numpy starts on import
import numpy as np
from sdflow.flow import FlowState
from sdflow.generators import make_icosphere
from sdflow.geometry import dirichlet_energy, integrate
from sdflow.monitors import stationarity_residual


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
        mass, lap, cf = state.mass, state.lap, state.curvature
        gb = abs(integrate(cf.K, mass) - 4 * math.pi) / (4 * math.pi)
        raw, _ = stationarity_residual(state)
        print(
            f"{s:3d} {mesh.num_vertices:6d}   "
            f"{cf.H.mean() * args.radius / 2:.8f}   "
            f"{np.abs(cf.H - 2 / args.radius).max() * args.radius:.3e}     "
            f"{gb:.3e}          "
            f"{integrate(cf.Ao_sq, mass):.3e}    "
            f"{dirichlet_energy(cf.H, lap):.3e}      "
            f"{raw:.4e}"
        )


if __name__ == "__main__":
    main()
