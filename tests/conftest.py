import pytest
from hypothesis import settings

from okbodies import census as census_module
from okbodies.partitions import GridShape

# Fixed draws: every run tries the same examples, so a slow or failing
# example shows up on every run, and Tier-1 time is reproducible.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def pytest_addoption(parser):
    parser.addoption(
        "--run-deep",
        action="store_true",
        default=False,
        help="run the long census checks (Gr(3,7))",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-deep"):
        return
    skip = pytest.mark.skip(reason="pass --run-deep to run")
    for item in items:
        if "deep" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def census36_graphs():
    """The (3,6) census and the 120 graphs its square moves return."""
    moved = []
    real = census_module.square_move

    def recording(G, nu, rng=None, known=None):
        res = real(G, nu, rng, known)
        moved.append(res.graph)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "square_move", recording)
        report = census_module.census(GridShape(3, 6))
    assert len(report.classes) == 34 and len(moved) == 120
    return report, moved
