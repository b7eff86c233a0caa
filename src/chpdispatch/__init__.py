"""Robust dispatch toolkit for combined heat-and-power systems."""

from .compile import (
    ConstraintFamily,
    LiftedOutputMap,
    StateSpaceModel,
    StructuralError,
    VariableManifest,
    balance_residuals,
    compile_constraints,
    compile_state_space,
    compile_uncertainty_tube,
)
from .config_io import ConfigError, ModelValidationError, dump_system, load_system
from .dispatch import (
    CostModel,
    DispatchError,
    DispatchSolution,
    Policy,
    build_nominal_problem,
    deterministic_schedule,
    realized_cost,
    solve_dispatch,
)
from .elecnet import (
    BranchFlowMap,
    OperatingPoint,
    PowerFlowError,
    SensitivityMatrices,
    branch_flow_map,
    nominal_operating_point,
    voltage_sensitivities,
)
from .heatnet import (
    TemperatureMaps,
    compute_delays,
    temperature_maps,
)
from .lp import (
    KktReport,
    LinearProgram,
    LpSolution,
    check_kkt,
    solve_lp,
    solve_lp_simplex,
)
from .model import (
    BatteryUnit,
    Branch,
    ChpUnit,
    Diagnostic,
    ElectricNetwork,
    ForecastSeries,
    GridConnection,
    HeatNetwork,
    HeatPipe,
    HeatPump,
    PvUnit,
    SystemModel,
    ThermalTank,
    validate_system,
)
from .reference import build_reference_system, reference_document
from .sets import PolyhedronH, UncertaintyTube
from .tighten import (
    FeedbackGain,
    TightenedSchedule,
    TighteningInfeasibleError,
    choose_gain,
    gamma,
    tighten,
    tighten_iterative_lp,
)
from .validation import (
    ComparisonReport,
    Metrics,
    ScenarioBatch,
    compare_methods,
    evaluate,
    sample_disturbances,
    simulate,
)

__version__ = "0.1.0"
