"""Pre/post-selected quantum conditional probabilities and beable fields.

A simulator library and CLI for conditional probabilities of intermediate
measurement outcomes given both an initial state and a post-selected final
outcome, and for the mass-density expectation fields those probabilities
induce over discretized spacetime: nonrelativistic lattice models with
interacting particle classes, and semi-relativistic photon-bounce toy models
with light-cone-shaped regions of indeterminacy.
"""

from .abl import (
    ConditionalDistribution,
    JointDistribution,
    PrePostScenario,
    abl_basic,
    abl_evolved,
    abl_expectation,
    abl_projective,
    oracle_joint_distribution,
)
from .errors import (
    BeableSimError,
    CapacityError,
    ContractError,
    ImpossiblePostSelectionError,
    InvariantBreachError,
    ValidationError,
    ZeroProbabilityBranchError,
)
from .fields import BeableField, SpacetimeGrid
from .hilbert import (
    LinearOperator,
    Projector,
    ProjectorFamily,
    StateVector,
    born_probability,
    evolution_operator,
    evolve,
    luders_collapse,
    propagate,
    tensor_product,
    validate_projector,
)
from .nonrel import (
    LatticeModel,
    MassDistribution,
    MassSpectrum,
    ParticleClass,
    ParticleSpec,
    Statistics,
    abl_mass_field,
    catastrophe_demo,
    class_mass_density,
    class_mass_distribution,
    final_boundary_projector,
    hopping_contact_hamiltonian,
    make_catastrophe_model,
    mass_family_at,
    mass_projector_anywhere,
    mass_projector_at,
    position_projector,
    sample_final_sites,
    site_product_state,
    uniform_product_state,
)
from .relmodels import (
    LightRay,
    NatureChoice,
    RayDirection,
    SpacetimePoint,
    ToyModelConfig,
    beable_field,
    born_reduction_check,
    branch_structure,
    collapse_time_at,
    in_region_of_indeterminacy,
    information_rays,
    ray_trajectories,
    ray_visible_outside_cone,
    rel_conditional,
    sample_nature_choice,
)
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"
