"""Library constructors refuse NaN and infinite parameters."""

import math

import numpy as np
import pytest

from beablesim import (
    LatticeModel,
    ParticleSpec,
    SpacetimeGrid,
    ToyModelConfig,
    ValidationError,
    site_product_state,
)

GRID = dict(t_min=-3.0, t_max=3.0, t_steps=41, x_min=-2.0, x_max=3.0, x_steps=251)


def lattice(**overrides):
    particles = (ParticleSpec(1.0), ParticleSpec(2.0))
    kwargs = dict(sites=3, particles=particles,
                  initial=site_product_state(3, particles, [0, 2]), t_final=1.0)
    kwargs.update(overrides)
    return LatticeModel(**kwargs)


def toy(**overrides):
    kwargs = dict(x1=0.0, x2=1.0, sigma1=0.05, sigma2=0.05,
                  amp_a=complex(np.sqrt(0.3)), amp_b=complex(np.sqrt(0.7)),
                  mass=2.0, t1=0.5, photons=1, grid=SpacetimeGrid(**GRID))
    kwargs.update(overrides)
    return ToyModelConfig(**kwargs)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SpacetimeGrid(**{**GRID, "t_max": math.nan}),
        lambda: lattice(t_final=math.nan),
        lambda: lattice(spacing=math.inf),
        lambda: ParticleSpec(math.inf),
        lambda: toy(t1=math.nan),
    ],
    ids=["grid-t_max-nan", "lattice-t_final-nan", "lattice-spacing-inf",
         "particle-mass-inf", "toy-t1-nan"],
)
def test_non_finite_parameter_is_rejected(build):
    with pytest.raises(ValidationError, match="finite"):
        build()
