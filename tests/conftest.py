import hypothesis
import pytest

from spdelab.drift import HolderDriftSpec
from spdelab.scheme import InitialData
from spdelab.spectral import make_heat_operator

hypothesis.settings.register_profile("suite", max_examples=25, deadline=None)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def heat16():
    return make_heat_operator(16)


@pytest.fixture(scope="session")
def rough_drift():
    # the canonical drift used throughout: diagonal, rough, capped, time-modulated
    return HolderDriftSpec(
        kind="diagonal", beta=0.5, epsilon=0.9, amplitude=1.0, cap=1.0, time_mod="cosine"
    )


@pytest.fixture(scope="session")
def cubic_initial():
    return InitialData(profile="power_decay", q=3.0)
