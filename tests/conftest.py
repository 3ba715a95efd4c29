import os

import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "ci", max_examples=25, deadline=None, derandomize=True
)
# The same runs without the shrink phase: a failing example is reported as first found.  For
# runs that only need pass or fail, such as testing mutants; select it with HYPOTHESIS_PROFILE.
hypothesis.settings.register_profile(
    "noshrink", hypothesis.settings.get_profile("ci"),
    phases=[phase for phase in hypothesis.Phase if phase is not hypothesis.Phase.shrink],
)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20011220)


@pytest.fixture(scope="session")
def one_query_report():
    # the certified report is shared by several tests; check it once per session
    from orderfinding.classical import one_query_value

    return one_query_value()
