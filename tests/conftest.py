import pytest
from hypothesis import settings

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
