"""Stochastic trajectory simulator for open quantum systems that start in
thermal equilibrium with their harmonic environment.

The workflow: diagonalise the bath into normal modes, tabulate its memory
kernels, synthesise correlated complex Gaussian noise on a real-time plus
imaginary-time grid, quench each trajectory through imaginary time to build
the equilibrated initial state, evolve it through real time, and average many
trajectories into the physical reduced density matrix.  An exact
small-system reference (full diagonalization of system plus truncated bath)
validates the whole chain.
"""

# Set before the submodules load: ensemble records it in a checkpoint's layout.
__version__ = "0.16.0"

from .config import RunConfig, emit_config, load_config, parse_config
from .ensemble import (EnsembleResult, HermiticityReport, Pipeline, build_pipeline,
                       compare_series, hermiticity_trace_report, run_ensemble,
                       write_csv, write_document)
from .kernels import KernelContext, k_complex, l_matrix
from .model import (BathSpec, Drive, NormalModes, SystemSpec, coupling_channels,
                    diagonalize_bath, mode_couplings)
from .noise import (NoiseCovariance, NoiseFactor, TimeGrids, build_covariance,
                    factorize, hs_identity_check, takagi, verify_empirical)
from .oracle import TruncatedBath, build_total_hamiltonian, exact_reduced_dynamics
from .propagate import equilibrate_batch, evolve_batch
from .workspace import Workspace

__all__ = [
    "BathSpec", "Drive", "EnsembleResult", "HermiticityReport", "KernelContext",
    "NoiseCovariance", "NoiseFactor", "NormalModes", "Pipeline", "RunConfig",
    "SystemSpec", "TimeGrids", "TruncatedBath", "Workspace", "build_covariance", "build_pipeline",
    "build_total_hamiltonian", "compare_series", "coupling_channels", "diagonalize_bath",
    "emit_config", "equilibrate_batch", "evolve_batch", "exact_reduced_dynamics",
    "factorize", "hermiticity_trace_report", "hs_identity_check", "k_complex",
    "l_matrix", "load_config", "mode_couplings", "parse_config", "run_ensemble",
    "takagi", "verify_empirical", "write_csv", "write_document",
]
