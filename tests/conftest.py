import tracemalloc

import pytest

from iet3.params import documented_switch_iet, documented_tower_iet, golden_iet


@pytest.fixture(scope="session")
def switch_iet():
    return documented_switch_iet()


@pytest.fixture(scope="session")
def tower_iet():
    return documented_tower_iet()


@pytest.fixture(scope="session")
def golden():
    return golden_iet()


@pytest.fixture(scope="session")
def doc_switch(switch_iet):
    """The documented epsilon = 0.05 switch, shared across tests."""
    from iet3.construction import SwitchSpec, build_switch
    return build_switch(switch_iet, SwitchSpec(a=0, b=1, epsilon=0.05),
                        verify_samples=2000, seed=2024)


@pytest.fixture(scope="session")
def doc_towers(tower_iet):
    """Documented tower candidates, shared across tests."""
    from iet3.towers import suggest_towers
    return suggest_towers(tower_iet, k_max=20, t_max=11.0)


@pytest.fixture(scope="session")
def doc_witness(switch_iet):
    """The documented three-level witness report, shared across tests."""
    import time
    from iet3.construction import non_simplicity_witness
    t0 = time.time()
    rep = non_simplicity_witness(switch_iet, K_levels=3, N=100_000, seed=7)
    rep["_runtime"] = time.time() - t0
    return rep


@pytest.fixture
def traced_peak():
    """The tracemalloc peak of one call, in bytes above what was traced
    before it, and the call's result."""
    def peak(call):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            return tracemalloc.get_traced_memory()[1] - base, out
        finally:
            if not tracing:
                tracemalloc.stop()
    return peak
