"""Structure-preserving P1/P0 solver for an extended Maxwell viscoelastic model.

The package namespace holds what a run needs: configuration, the
simulation driver, verification and output. Everything else (operators,
assembly, solver, individual diagnostics) is imported from its submodule.
"""

from .config import ConfigError, config_text, parse_config, preset_config
from .diagnostics import verify_result
from .mesh import MeshFormatError
from .outputs import write_outputs
from .stepper import Simulation, SolverError, default_sample_steps

__all__ = [
    "ConfigError",
    "MeshFormatError",
    "Simulation",
    "SolverError",
    "config_text",
    "default_sample_steps",
    "parse_config",
    "preset_config",
    "verify_result",
    "write_outputs",
]
