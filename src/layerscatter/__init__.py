"""Exact complex wave functions, scattering amplitudes, and band structure
for a particle hitting a 1D chain of rectangular barriers between two
different semi-infinite media."""

from .structure import (
    Barrier,
    DegenerateWavenumberError,
    EvanescentGapError,
    LayeredStructure,
    StructureError,
    WaveNumberSet,
    branch_sqrt,
    compute_wavenumbers,
    mirror_structure,
    validate_structure,
)
from .amplitudes import (
    EmbeddedAmplitudes,
    all_barrier_amplitudes,
    barrier_amplitudes,
    embed_in_media,
    interface_amplitudes,
    prefix_by_matrix,
    prefix_by_recurrence,
    reflection_probability,
    transmission_probability,
)
from .wavefunction import (
    ScatteringSolution,
    default_grid,
    evaluate_psi,
    evaluate_dpsi,
    sample_density,
    solve_structure,
)
from .periodic import (
    BandEdgeError,
    BandTable,
    BlochPhase,
    PeriodicLattice,
    band_scan,
    bloch_phase,
    closed_form_prefix,
    decay_rate,
)
from .oracle import (
    MatchingSolveError,
    MatchingSystem,
    OracleSolution,
    assemble_matching_system,
    compare_with_pipeline,
    oracle_solution,
    solve_matching_system,
)

__version__ = "0.1.0"
