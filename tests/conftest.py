import pytest
from hypothesis import HealthCheck, settings

from blowup_series import series_set

settings.register_profile(
    "exact",
    max_examples=50,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def set17():
    """Series set covering the whole golden table (order 16 plus one guard)."""
    return series_set(17)


@pytest.fixture(scope="session")
def set29():
    """Series set for order-28 checks (one guard order on top)."""
    return series_set(29)
