"""Interference-protected entanglement of two V-configuration atomic qubits.

Simulates a pair of non-interacting three-level atoms whose qubit
transitions decay into independent vacuum reservoirs. Interference
between the two decay channels of each atom (vacuum-induced coherence)
traps population in a dark superposition, which in turn protects the
entanglement of the pair: concurrence settles at a nonzero value set by
the dipole ratio eta instead of decaying away.

The package provides the closed-form single-atom channel and its
long-time limit, the factorized pair evolution, the two-qubit projection
and concurrence, curve generation, steady states, sudden-death search,
and a CLI, all on numpy alone. The closed-form matrix elements quoted in
the literature for this system ship as a transcription-faithful audit
mode alongside the oracle dynamics. The independent cross-checks
(exponentiated Liouvillian, RK4, the joint pair generator and the
general Wootters concurrence) live in ``vicsim.oracles``, which needs
scipy and is not imported here.
"""

from .vsystem import (
    NoConvergence,
    PublishedSingleAtom,
    UnsupportedParams,
    VParams,
    alpha_beta,
    apply_channel,
    dark_vector,
    excited_state,
    ground_state,
    no_jump_propagators,
    propagate_channel,
    published_single_atom,
    single_atom_states,
    steady_channel,
    steady_no_jump,
    steady_state,
    superposition_state,
)
from .bipartite import (
    BellKind,
    BellXElements,
    TwoQubitState,
    ZeroTrace,
    apply_pair_channel,
    bell_state,
    bell_x_elements,
    evolve_pair,
    product_state,
    project_to_qubits,
    published_pair_elements,
    qubit_block,
    steady_pair,
)
from .entanglement import (
    CURVE_COLUMNS,
    ConcurrenceCurve,
    EsdResult,
    NotXForm,
    concurrence_curve,
    concurrence_x,
    esd_time,
    steady_concurrence,
    x_branch_values,
)

__version__ = "0.1.0"
