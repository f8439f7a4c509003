"""Discovery of continuous and discrete symmetries of functions fitted to data.

The pipeline mirrors its stages as submodules: ``features`` (evaluable
dictionaries with analytic Jacobians), ``manifold`` (orthonormal-column
optimization), ``model_fit`` (regression, level sets, KDE), ``vfield``
(annihilating vector fields, invariants, flows), ``similarity`` (field
comparison scores), ``discrete`` (parametric symmetry fitting),
``geometry`` (pullback metrics), ``datasets`` (seeded synthetic data),
and ``serialize`` (JSON/CSV persistence).
"""

from .datasets import GENERATOR_NAMES, GeneratorSpec, generate
from .discrete import (
    DiscreteFitResult,
    ParametricFamily,
    fit_density_rotation,
    fit_discrete,
    generator_cosine,
    reflection_family,
    rotation_family,
    rotation_generator,
    similarity_matrix,
    user_linear_family,
)
from .features import (
    FeatureAtom,
    FeatureBasis,
    design_matrix,
    jacobian_stack,
    monomial_basis,
    trig_extend,
)
from .geometry import SmoothMapModel, fit_map, pullback_metric
from .manifold import (
    DivergenceError,
    OptimizationTrace,
    OptimizerConfig,
    RetractionSingularError,
    minimize,
    minimize_affine_target,
    random_orthonormal,
    retract,
    tangent_project,
)
from .model_fit import (
    AffineFrame,
    ElbowTrace,
    EmptyLevelSetError,
    KdeModel,
    LevelSetModel,
    ScalarFunctionModel,
    extend_degenerate_columns,
    fit_level_set,
    fit_regression,
    kde_eval,
    kde_fit,
    kde_gradient,
    project_onto_affine,
    scott_bandwidth,
    select_components_elbow,
)
from .serialize import load_model, read_csv, save_model, write_csv
from .similarity import (
    IntegrationDomain,
    SimilarityReport,
    domain_from_data,
    similarity,
)
from .vfield import (
    BasisVectorField,
    FlowDivergedError,
    FlowParameterResult,
    VectorFieldModel,
    basis_restricted_search,
    escalate_vector_fields,
    estimate_flow_parameter,
    estimate_invariants,
    estimate_vector_fields,
    extended_feature_matrix,
    flow_integrate,
    invariant_feature_matrix,
)

__version__ = "0.1.0"
