import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="session")
def cli():
    return run.import_cli(run.ROOT)


@pytest.fixture(scope="session")
def refs():
    fixtures = {f for w in WORKLOADS.values() for f in w.fixtures}
    return checks.References.compute(run.ROOT, sorted(fixtures))


@pytest.fixture
def runner(cli, refs, tmp_path):
    def make(workload, seed=0):
        return run.Runner(WORKLOADS[workload], seed, refs, cli, tmp_path)
    return make
