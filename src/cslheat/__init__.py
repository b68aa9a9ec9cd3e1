"""Collapse-noise heating of solid test masses.

Computes the total, center-of-mass, and internal heating rates of a test
mass under white-noise CSL collapse dynamics, validates the continuum
formulas against discrete-lattice brute-force oracles, and uses the
geometry dependence of the center-of-mass channel to optimize layered
test-mass designs and to separate collapse heating from thermal leakage.
"""

from .core import (
    BUILTIN_MATERIALS,
    CONSTANTS,
    CONSTANTS_VERSION,
    CslParams,
    ExperimentSpec,
    ParseError,
    PhysicalConstants,
    QuadratureSpec,
    ThermalModel,
    ValidationError,
    canonical_spec_json,
    dumps_spec,
    load_spec,
    loads_spec,
    spec_hash,
)
from .geometry import (
    Cuboid,
    Cylinder,
    Layer,
    LayeredStack,
    MassModel,
    Material,
    NotSeparable,
    PointMass,
    Sphere,
    extents,
    mu_tilde,
    normalized_form_factor,
    separable_factors,
    total_mass,
)
from .heating import (
    HeatingReport,
    PowerEstimate,
    gamma_cm,
    gamma_cm_mc,
    gamma_internal,
    gamma_total,
    heating_report,
)
from .lattice import (
    Lattice,
    TooManySites,
    build_lattice,
    f_double_commutator,
    gamma_cm_discrete,
    gamma_cm_discrete_separable,
    gamma_total_discrete,
    lattice_check,
    mu_tilde_discrete,
)
from .analysis import (
    ConstraintViolation,
    DiscriminabilityReport,
    InfeasibleDesign,
    LayerDesign,
    OptimizeResult,
    ScanTable,
    design_stack,
    discriminability_report,
    lambda_bound,
    optimize_layers,
    scan_rc,
    thermal_gain,
)

__version__ = "1.0.0"
