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
  cli              command-line front end
"""

from .crossed_module import (DifferentialCrossedModule, ValidationReport,
                             builtin_module, dump_crossed_module,
                             load_crossed_module, t_map,
                             validate_crossed_module)
from .curvature import (bianchi_residuals, curvature_F, curvature_G3,
                        curvature_T, eom_gradient_check, eom_residuals,
                        evaluate_action, fake_curvature)
from .dof import DofTable, dof_count, dof_report
from .gauge import fat_gauge_transform, thin_gauge_transform
from .lattice import (FieldConfiguration, Lattice, discrete_derivative,
                      finest_order, fit_order, make_config_recipe)
from .localpoly import poisson_bracket, smear
from .phase import (PhasePoint, make_phase_recipe, phase_from_config,
                    random_phase_point, zero_phase_point)
from .constraints import (canonical_hamiltonian, constraint_density,
                          evaluate_constraint, total_hamiltonian)
from .relations import (RELATIONS, check_algebra_relation,
                        consistency_residuals, fundamental_bracket_residuals,
                        offshell_relations, reduction_residual)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
