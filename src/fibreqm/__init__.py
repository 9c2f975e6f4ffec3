"""Quantum dynamics in Hilbert-space and Hilbert-fibre-bundle form.

The conventional side (states, operators, Schrodinger/von Neumann evolution)
acts as the oracle; the bundle side (sections, morphisms, evolution transport,
bundle Hamiltonians) is checked against it differentially, scenario by
scenario.
"""

from .bundle import (
    MorphismAlongPath,
    NonPointwiseOperatorError,
    SectionAlongPath,
    SingularTrivializationError,
    TrivializationFamily,
    constant_trivialization,
    diagonal_phase_trivialization,
    global_phase_trivialization,
    identity_trivialization,
    lift_operator,
    lift_operator_on_grid,
    lift_trajectory,
    module_combine,
    morphism_as_section_operator,
    random_smooth_unitary_trivialization,
    section_operator_as_morphism,
)
from .checks import run_scenario
from .dynamics import (
    HamiltonianFamily,
    ObservableFamily,
    OffGridTimeError,
    PropagatorGrid,
    Trajectory,
    evolve_state,
    uniform_grid,
)
from .hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PhysicalConstants,
    is_hermitian,
    matrix_exponential,
    max_abs,
)
from .paths import BaseSpace, Euclidean, Interval, Path, SinglePoint, make_path, self_intersections
from .pictures import IntegralOfMotionReport, PictureTransform, is_integral_of_motion
from .report import CheckRecord, ScenarioReport, SuiteReport, emit
from .scenario import (
    ConfigError,
    ScenarioConfig,
    catalog_names,
    load_catalog_scenario,
    load_scenario,
    scenario_from_dict,
)
from .suite import run_suite
from .transport import (
    EvolutionTransport,
    MatrixBundleHamiltonian,
    TransportAxiomReport,
    check_transport_axioms,
    integrate_bundle_schrodinger,
)

__version__ = "0.1.0"
