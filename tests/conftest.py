import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "ci", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20011220)


@pytest.fixture(scope="session")
def one_query_report():
    # the certified report is shared by several tests; check it once per session
    from orderfinding.classical import one_query_value

    return one_query_value()
