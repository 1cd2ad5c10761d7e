"""Forced traveling waves of a 1-D parabolic-elliptic chemotaxis system in a
shifting habitat: a deterministic explicit-scheme simulator plus the
analytic verification toolkit (Green's-kernel chemical fields, principal
eigenvalues, super/sub-solution envelopes, and the frozen-chemotaxis
fixed-point iteration)."""

from .chemical import ChemicalSolver, greens_psi, greens_psi_x
from .envelopes import (CertificationReport, Envelope, EnvelopeError,
                        build_lower_envelope_case1,
                        build_lower_envelope_case2,
                        build_upper_envelope_case1,
                        build_upper_envelope_case2, certify_supersolution)
from .fixedpoint import (FixedPointResult, SandwichError,
                         frozen_flow_fixed_point, stationary_residual)
from .harness import (ConfigError, RunSpec, SweepSpec, parse_config,
                      render_manifest, run_experiment, sweep)
from .ignition import (BracketError, IgnitionWave, ignition_wave,
                       richardson_speed)
from .model import (BoundaryCase, Grid, GrowthProfile, HabitatClass,
                    InitialCondition, RegimeReport, SimParams, check_regime,
                    classify_profile, speed_limit, theta_root)
from .spectral import (EigenResult, LambdaInfinityResult, lambda_infinity,
                       principal_eigenvalue)
from .stepper import (BlowUpError, Outcome, OutcomeTag, RunConfig,
                      Trajectory, detect_outcome, initial_state,
                      make_run_config, run, run_block)

__version__ = "0.1.0"
