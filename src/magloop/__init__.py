"""Numerical existence scheme for periodic magnetic geodesics.

The package discretizes magnetic action functionals on loops, estimates
minimax critical levels over throwing-out families, follows them through a
regularization continuation, and classifies each run as a converged
extremal at the prescribed energy or a diverging-length sequence with its
implied energy ladder.
"""

__version__ = "0.1.0"

from .action import (ActionParams, action_S, action_S_eps_tau, circulation,
                     grad_action)
from .continuation import (Classification, ContinuationRecord,
                           ConvergedExtremal, DivergingLengths, Inconclusive,
                           Schedule, classify_outcome, continuation_run,
                           implied_energy)
from .dynamics import (FlowState, ResidualReport, el_residual_SE,
                       integrate_flow, kinetic_energy)
from .errors import (ConfigError, DegenerateLoop, InvalidOracleInput,
                     MagloopError, NoNegativeLoopFound, NotConcatenable)
from .geometry import (ChartPoint, GeometryKind, GeometrySpec, field_strength,
                       potential_eval)
from .loops import (Loop, LoopFamily, concat, length, load_loop_csv,
                    make_circle, make_point_loop, resample_arclength,
                    save_loop_csv, speed_cv, speeds)
from .minimax import (DescentSettings, MinimaxResult, family_minimax,
                      init_sweep_family)
from .oracle import (OrbitCandidate, fd_gradient, larmor_orbit,
                     orbit_to_loop, shooting_periodic)
