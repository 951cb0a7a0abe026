"""Superintegrable free and Kepler systems on 3D curved spaces.

A deformed Poisson coalgebra supplies many-body generator realizations and
their Casimir constants of motion; specific Hamiltonian choices give geodesic
flow and Kepler potentials on 3D spaces of variable and constant curvature.
The library carries the observables with exact derivatives, verifies every
bracket table by randomized sampling, integrates orbits with invariant
monitoring, and checks the metric curvatures numerically.
"""

from .kernel import (DomainError, KScalar, PoleError, asink,
                     atank, ckappa, cotkappa, skappa, tkappa)
from .phase import (Chart, ChartMismatchError, ChartSingularityError,
                    Observable, PhaseState, fd_grad, grad)
from .coalgebra import (BracketReport, CasimirSet, Identity, Realization,
                        casimir_of, casimirs, coproduct_join, one_site,
                        pbracket, run_table, three_site,
                        three_site_closed_form, verify_casimirs, verify_sl2z)
from .spaces import (PRESETS, CurvatureResult, Family, HamiltonianSpec,
                     RadialSystem, SpaceParams, chart_guard, curvature,
                     from_polar, hamiltonian, metric, radial_reduction,
                     to_polar)
from .symmetry import (GeneratorSet, LRLVector, constants, independence_rank,
                       independence_ranks, lrl, sample_polar, so4_generators,
                       transported, verify_lrl_algebra, verify_so4)
from .dynamics import (IntegratorConfig, StepUnderflowError, Trajectory,
                       drift_report, integrate, rhs, trajectory_csv)

__version__ = "0.1.0"
