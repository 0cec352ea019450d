"""quadsim: coherent population transfer protocols on two- and three-level
systems, with quasi-adiabatic detuning-sweep schedules, a piecewise-exponential
Schrodinger propagator, and robustness sweep tooling."""

from .analysis import (
    EffectiveTwoLevel,
    ReducedTwoLevelModel,
    TransferMetrics,
    adiabatic_elimination,
    pi_time,
    t0_time,
    transfer_metrics,
)
from .core_model import (
    AngularFrequency,
    Eigensystem2,
    LambdaModel,
    LambdaParams,
    QuantumState,
    TWO_PI,
    TwoLevelModel,
    TwoLevelParams,
    angular,
    lambda_hamiltonian,
    lz_eigensystem,
    lz_hamiltonian,
    ordinary,
    reference_gap,
    three_level_gap,
    two_level_hamiltonian,
)
from .propagator import (
    ConvergenceReport,
    EvolveRequest,
    EvolveResult,
    IntegrationError,
    Method,
    convergence_probe,
    evolve,
    expm_small,
    write_trajectory_csv,
)
from .schedules import (
    AdiabaticityReport,
    PulseSchedule,
    ScheduleKind,
    adiabaticity_report,
    adiabaticity_s,
    adiabaticity_sprime,
    delta_derivative,
    faquad_delta,
    linear_delta,
    rotating_frame_check,
    schedule_table,
    siquad_delta,
    siquad_sprime_value,
    stirap_pulses,
    write_schedule_csv,
)
from .sweeps import (
    AmplitudeMode,
    Axis,
    AxisWindow,
    ComparisonResult,
    RunSpec,
    Scenario,
    SweepError,
    SweepResult,
    SweepRow,
    SweepSpec,
    compare_protocols,
    make_model,
    make_schedule,
    run_protocol,
    run_sweep,
    write_sweep_csv,
)

__version__ = "0.1.0"
