import numpy as np
import pytest

from iseki.catalog import build_recipe, builtin_catalog
from iseki.enumeration import enumerate_semirings
from iseki.semiring import direct_product, validate_semiring


@pytest.fixture(scope="session")
def boolean():
    return build_recipe(("named", "B"))


@pytest.fixture(scope="session")
def z2():
    return build_recipe(("named", "Z2"))


@pytest.fixture(scope="session")
def c3():
    return build_recipe(("named", "C3"))


@pytest.fixture(scope="session")
def c4():
    return build_recipe(("named", "C4"))


@pytest.fixture(scope="session")
def z4():
    return build_recipe(("named", "Z4"))


@pytest.fixture(scope="session")
def trivial():
    return build_recipe(("named", "trivial"))


@pytest.fixture(scope="session")
def bb(boolean):
    # Elements encode pairs (i, j) as 2*i + j: {0}xB = {0,1}, Bx{0} = {0,2}.
    return direct_product(boolean, boolean)


@pytest.fixture(scope="session")
def collapsing3():
    """Three-element semiring whose Bourne quotient by {0, 1} collapses
    everything: 2 + 1 = 1, so 2 ~ 1 ~ 0 and the kernel is improper."""
    return validate_semiring(
        [[0, 1, 2], [1, 1, 1], [2, 1, 1]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        2,
        id="collapsing3",
    )


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


@pytest.fixture(scope="session")
def catalog_semirings(catalog):
    return [entry.semiring for entry in catalog]


@pytest.fixture(scope="session")
def small_semirings(catalog_semirings):
    """The catalog plus every labeled semiring of order <= 4."""
    out = list(catalog_semirings)
    for n in range(1, 5):
        out.extend(enumerate_semirings(n))
    return out


def naive_ideal_sets(s):
    """Independent frozenset-based ideal scan (no bitmasks, no kernels)."""
    elements = list(range(s.n))
    out = []
    for mask in range(1 << s.n):
        subset = frozenset(e for e in elements if (mask >> e) & 1)
        if not subset:
            continue
        closed = all(
            int(s.add[a, b]) in subset for a in subset for b in subset
        ) and all(
            int(s.mul[r, a]) in subset for r in elements for a in subset
        )
        if closed:
            out.append(subset)
    return sorted(out, key=lambda ss: sorted(ss))


@pytest.fixture(scope="session")
def chain6():
    rng = np.arange(6)
    return validate_semiring(
        np.maximum.outer(rng, rng), np.minimum.outer(rng, rng), 5, id="C6"
    )
