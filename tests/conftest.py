"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging

import pytest

from repro.apps import dsp_filter, mpeg4, network_processor, vopd
from repro.core.coregraph import CoreGraph
from repro.physical.estimate import NetworkEstimator
from repro.topology.library import make_topology


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden selection-outcome files from the "
        "current implementation instead of asserting against them",
    )

@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Undo a test's reconfiguration of the ``repro`` logger.

    ``repro.cli.main`` calls ``configure_logging``, which sets the
    logger's level, handler and ``propagate=False``; left in place, that
    hides every later test's ``repro.*`` records from ``caplog``.
    """
    logger = logging.getLogger("repro")
    level, handlers, propagate = (
        logger.level, list(logger.handlers), logger.propagate,
    )
    yield
    logger.setLevel(level)
    logger.handlers = handlers
    logger.propagate = propagate


#: Topologies exercised by generic invariant tests, sized for 12 cores.
GENERIC_TOPOLOGY_NAMES = (
    "mesh",
    "torus",
    "hypercube",
    "clos",
    "butterfly",
    "star",
    "ring",
)


@pytest.fixture(scope="session")
def vopd_app() -> CoreGraph:
    return vopd()


@pytest.fixture(scope="session")
def mpeg4_app() -> CoreGraph:
    return mpeg4()


@pytest.fixture(scope="session")
def dsp_app() -> CoreGraph:
    return dsp_filter()


@pytest.fixture(scope="session")
def netproc_app() -> CoreGraph:
    return network_processor()


@pytest.fixture(scope="session")
def estimator() -> NetworkEstimator:
    return NetworkEstimator()


@pytest.fixture(params=GENERIC_TOPOLOGY_NAMES)
def any_topology(request):
    """One instance of every library topology, sized for 12 cores."""
    return make_topology(request.param, 12)


@pytest.fixture
def tiny_app() -> CoreGraph:
    """Four cores, four flows — fast mapping tests."""
    g = CoreGraph("tiny")
    for i, area in enumerate((2.0, 3.0, 1.5, 2.5)):
        g.add_core(f"c{i}", area_mm2=area)
    g.add_flow("c0", "c1", 200.0)
    g.add_flow("c1", "c2", 150.0)
    g.add_flow("c2", "c3", 100.0)
    g.add_flow("c3", "c0", 50.0)
    return g
