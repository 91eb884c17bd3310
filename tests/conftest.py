import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ebmix import MixtureModel, NormalComponent, NullMode

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


@pytest.fixture
def two_component_model():
    """Half point-mass null, half N(0, 3) slab; the worked example model."""
    return MixtureModel(
        pi=np.array([0.5, 0.5]),
        components=(NormalComponent(0.0, 0.0), NormalComponent(0.0, 3.0)),
        null_mode=NullMode.THEORETICAL,
        penalty=np.zeros(2),
    )


def random_normal_model(rng, n_components=None, theoretical=True):
    """A random valid normal mixture model for property tests."""
    j = int(n_components or rng.integers(2, 6))
    pi = rng.dirichlet(np.ones(j) * 2.0)
    pi[0] += 0.5  # keep the null from vanishing
    pi /= pi.sum()
    comps = []
    for k in range(j):
        if k == 0 and theoretical:
            comps.append(NormalComponent(0.0, 0.0))
        else:
            comps.append(
                NormalComponent(
                    float(rng.uniform(-4, 4)), float(rng.uniform(0, 4.0) ** 2)
                )
            )
    return MixtureModel(
        pi=pi,
        components=tuple(comps),
        null_mode=NullMode.THEORETICAL if theoretical else NullMode.NONE,
        penalty=np.zeros(j),
    )
