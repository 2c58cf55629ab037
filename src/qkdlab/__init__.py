"""Entanglement-based key distribution over noisy channels.

Simulates singlet-pair key agreement with delayed axis announcement,
its prepare-and-measure counterpart, depolarizing/substitution/coherent
adversaries, public-test acceptance statistics, dimension-counting
information bounds, and classical key distillation.

The package root exports the session-level API; everything else is
imported from its module (``qkdlab.qstate``, ``qkdlab.bounds``, ...).
One simulation trial, session plus distillation, is
``qkdlab.cli.simulate_trial``.
"""

from .adversary import CoherentAttack, InterceptResend, SubstituteAttack
from .bounds import atypical_dim_chain
from .channel import ChannelModel
from .errors import ConfigError, RegimeError
from .postprocess import distill_key
from .protocol import SessionConfig, run_bb84_session, run_epr_session
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "CoherentAttack",
    "ConfigError",
    "InterceptResend",
    "RegimeError",
    "SessionConfig",
    "SubstituteAttack",
    "atypical_dim_chain",
    "distill_key",
    "run_bb84_session",
    "run_epr_session",
    "stream",
]
