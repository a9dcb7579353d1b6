"""Homoclinic orbits of singular periodic Hamiltonian systems.

Computes trajectories u with u(+-inf) = 0 solving u'' + a(t) grad W(u) = 0
for a periodic coefficient a and a potential W with a strong-force
singularity, by minimizing a discretized action over a topological
constraint class and descending to critical points.  Includes a
multi-solution search with a shift-invariant distinctness metric and a
command line interface.  The package root re-exports nothing: import each
name from its module (`from homoclinic.solve import solve_homoclinic`).
"""
