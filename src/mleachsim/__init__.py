"""Deterministic event-driven simulator for flood-deployed sensor networks.

Compares a rotating-cluster collection protocol with a proactive
distance-vector baseline over a shared radio energy model, mobility, and
traffic. Seeded runs are exactly reproducible; see the README for the CLI.
"""

from .config import ConfigError, SimConfig, load_config, parse_config, serialize_config, validate_config
from .metrics import MetricsLog
from .simulation import InvariantViolation, run_simulation

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "MetricsLog",
    "SimConfig",
    "__version__",
    "load_config",
    "parse_config",
    "run_simulation",
    "serialize_config",
    "validate_config",
]
