"""Quench dynamics of disordered fermion chains.

Builds Anderson and interacting disordered-chain Hamiltonians in
particle-number sectors, evolves initial states exactly through
eigendecomposition (`propagate` for a dense sector, `evolve.slater_series`
from the one-particle Hamiltonian alone for a non-interacting basis state),
tracks l1-norm coherence / predictability / entanglement triples, and
classifies late-time trajectories as saturated or logarithmically drifting.
"""

__version__ = "0.1.0"

from .detect import FitResult, FitWindow, fit_log, last_decade
from .evolve import TimeGrid, propagate
from .experiment import (
    ExperimentConfig,
    TrajectoryRecord,
    make_default_config,
    run_experiment,
    run_sweep,
)
from .hamiltonian import ChainParams, build_hamiltonian, sample_disorder
from .hilbert import Sector, enumerate_sector, full_space
from .quantifiers import (
    QuantifierTriple,
    coherence_l1,
    entanglement_l1,
    global_quantifiers,
    local_quantifiers,
    measurement_cost,
    partial_trace,
    predictability_l1,
)
from .states import BlockState, max_coherent, max_incoherent, neel, w_state

__all__ = [
    "BlockState",
    "ChainParams",
    "ExperimentConfig",
    "FitResult",
    "FitWindow",
    "QuantifierTriple",
    "Sector",
    "TimeGrid",
    "TrajectoryRecord",
    "build_hamiltonian",
    "coherence_l1",
    "enumerate_sector",
    "entanglement_l1",
    "fit_log",
    "full_space",
    "global_quantifiers",
    "last_decade",
    "local_quantifiers",
    "make_default_config",
    "max_coherent",
    "max_incoherent",
    "measurement_cost",
    "neel",
    "partial_trace",
    "predictability_l1",
    "propagate",
    "run_experiment",
    "run_sweep",
    "sample_disorder",
    "w_state",
]
