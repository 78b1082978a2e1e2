import pytest

from krflow.flow import FlowConfig, run
from krflow.geometry import make_grid
from krflow.harness import legendre_bump, multi_mode


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64)


@pytest.fixture(scope="session")
def grid128():
    return make_grid(128)


@pytest.fixture(scope="session")
def grid256():
    return make_grid(256)


@pytest.fixture(scope="session")
def p2_run_small():
    """legendre_bump(2, 1e-3) at N = 128 to t = 1, the workhorse trajectory."""
    metric = legendre_bump(make_grid(128), 2, 1e-3)
    return run(FlowConfig(t_end=1.0, record_dt=0.05), metric)


@pytest.fixture(scope="session")
def p2_run_large():
    """Large-amplitude run used by the gate-semantics tests."""
    metric = legendre_bump(make_grid(64), 2, 0.3)
    return run(FlowConfig(t_end=0.2, record_dt=0.05), metric)


@pytest.fixture(scope="session")
def multimode_run():
    metric = multi_mode(make_grid(128), seed=7, decay_rate=2.0, amplitude=5e-3)
    return run(FlowConfig(t_end=0.5, record_dt=0.05), metric)
