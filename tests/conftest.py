import pytest

from splitlab.constructions import build_divergence_tower


@pytest.fixture(scope="session")
def thm12_two_stage():
    """The default two-stage divergence tower, built once for the whole session."""
    return build_divergence_tower(2)
