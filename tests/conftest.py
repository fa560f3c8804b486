"""Shared fixtures for the GPM reproduction test suite."""

import pytest

from repro import System
from repro.sim import Machine


@pytest.fixture(autouse=True, scope="session")
def _isolated_cache_dir(tmp_path_factory):
    """Point the default disk-cache location at a throw-away directory.

    CLI tests drive ``main()`` in-process; without this, commands that
    enable the persistent cache by default would write into the
    developer's real ``~/.cache/repro``.
    """
    import os

    prev = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if prev is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = prev


@pytest.fixture(autouse=True, scope="module")
def _clear_runner_cache():
    """Isolate the experiments runner's result cache between test modules.

    The cache is keyed by (workload, mode, config), so results are shared
    *within* a module for speed but never leak stale state across modules
    (e.g. after a module monkeypatches ``repro.sim.config.DEFAULT_CONFIG``).
    The engine's process-wide configuration (disk cache, fan-out width) is
    reset too, in case a test module installed either.
    """
    from repro.experiments import runner

    yield
    runner.clear_cache()
    runner.set_disk_cache(None)
    runner.set_default_jobs(1)


@pytest.fixture
def machine() -> Machine:
    return Machine()


@pytest.fixture
def system() -> System:
    return System()


@pytest.fixture
def eadr_system() -> System:
    return System(persistency="eadr")
