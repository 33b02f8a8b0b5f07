"""Numerical laboratory for ensemble-action quantization on 1D/2D grids.

The package splits along the pipeline it implements: grids and stencils
(`grid`), density/phase fields and potentials (`fields`), the extended
action (`action`), vacuum-fluctuation transition statistics
(`fluctuation`), the ensemble Hamiltonian, constraint functionals, their
gradients and brackets (`constraints`), eigen/time solvers (`solvers`),
the two-body translation-invariant system (`bipartite`), and the `varq`
command line front end (`cli`).
"""
