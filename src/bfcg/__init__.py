"""Component-level toolkit for BFCG theory over a generic Lie 2-group.

Layers:

  crossed_module   structure tensors, identity validation, catalog, T map
  lattice          periodic lattices, smooth recipes, refinement orders
  curvature        curvatures, action, field equations, Bianchi residuals
  gauge            thin and fat gauge transformations
  localpoly        exact-gradient engine for local polynomial functionals
  phase            canonical phase space on a spatial 3-lattice
  constraints      constraint densities, Hamiltonians, multipliers
  relations        constraint-algebra catalog and numerical verification
  dof              local degree-of-freedom counting
  checks           the check registry behind the CLI and the acceptance tests
  cli              command-line front end
"""

__version__ = "0.1.0"
