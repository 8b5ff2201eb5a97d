import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from latkit.order import FiniteLattice, FinitePoset, build_lattice, chain


@pytest.fixture
def default_recursion_limit():
    """Run the test at CPython's default recursion limit of 1,000."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def m3() -> FiniteLattice:
    return build_lattice(
        FinitePoset(
            ["0", "1", "a", "b", "c"],
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        )
    )


@pytest.fixture(scope="session")
def square() -> FiniteLattice:
    # 2x2: two incomparable atoms
    return build_lattice(
        FinitePoset(["0", "1", "a", "b"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    )


@pytest.fixture(scope="session")
def n5() -> FiniteLattice:
    return build_lattice(
        FinitePoset(
            ["0", "1", "a", "b", "c"],
            [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        )
    )


@pytest.fixture(scope="session")
def two() -> FiniteLattice:
    return chain(2)


@pytest.fixture(scope="session")
def fig_lattice() -> FiniteLattice:
    from latkit.inflated import fano_lattice

    return fano_lattice()
