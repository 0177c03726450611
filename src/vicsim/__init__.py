"""Interference-protected entanglement of two V-configuration atomic qubits.

Simulates a pair of non-interacting three-level atoms whose qubit
transitions decay into independent vacuum reservoirs. Interference
between the two decay channels of each atom (vacuum-induced coherence)
traps population in a dark superposition, which in turn protects the
entanglement of the pair: concurrence settles at a nonzero value set by
the dipole ratio eta instead of decaying away.

The package provides the master-equation machinery (three independent
propagators that cross-validate each other), the two-qubit projection
and concurrence, curve generation, steady states, sudden-death search,
and a CLI. The closed-form matrix elements quoted in the literature for
this system ship as a transcription-faithful audit mode alongside the
oracle dynamics.
"""

from .qlinalg import (
    NotHermitian,
    NotPSD,
    Spectrum,
    dagger,
    expm,
    hermitian_eig,
    psd_sqrt,
    tensor_product,
    unvec,
    vec,
)
from .vsystem import (
    NoConvergence,
    PublishedSingleAtom,
    StepTooLarge,
    UnsupportedParams,
    VParams,
    alpha_beta,
    apply_channel,
    build_liouvillian,
    dark_vector,
    excited_state,
    ground_state,
    propagate_channel,
    propagate_rk4,
    propagate_spectral,
    published_rho11_infinity,
    published_single_atom,
    steady_channel,
    steady_state,
    superposition_state,
)
from .bipartite import (
    BellKind,
    TwoQubitState,
    ZeroTrace,
    bell_state,
    evolve_pair,
    evolve_pair_joint,
    joint_liouvillian,
    product_state,
    project_to_qubits,
    published_pair_elements,
    qubit_block,
    steady_pair,
)
from .entanglement import (
    ConcurrenceCurve,
    ConcurrencePoint,
    EsdResult,
    NotAState,
    NotXForm,
    concurrence_curve,
    concurrence_wootters,
    concurrence_x,
    esd_time,
    steady_concurrence,
    x_branch_values,
)

__version__ = "0.1.0"
