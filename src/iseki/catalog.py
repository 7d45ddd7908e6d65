"""Built-in corpus of small semirings used by the sweep and the tests.

Every entry carries a structured recipe that re-evaluates to the same
semiring, so the catalog is reproducible from its own description.
"""

from .ideals import _proper_ideal_masks, ideal_from_members, mask_members
from .semiring import bourne_quotient, direct_product, validate_semiring


def _chain(k, name):
    """Totally ordered chain 0 < 1 < ... < k-1 with add=max, mul=min."""
    add = [[max(a, b) for b in range(k)] for a in range(k)]
    mul = [[min(a, b) for b in range(k)] for a in range(k)]
    return validate_semiring(add, mul, k - 1, id=name)


def _mod_ring(k, name):
    add = [[(a + b) % k for b in range(k)] for a in range(k)]
    mul = [[(a * b) % k for b in range(k)] for a in range(k)]
    return validate_semiring(add, mul, 1 if k > 1 else 0, id=name)


_NAMED = {
    "trivial": lambda: validate_semiring([[0]], [[0]], 0, id="trivial"),
    "B": lambda: validate_semiring([[0, 1], [1, 1]], [[0, 0], [0, 1]], 1, id="B"),
    "Z2": lambda: _mod_ring(2, "Z2"),
    "C3": lambda: _chain(3, "C3"),
    "C4": lambda: _chain(4, "C4"),
    "C5": lambda: _chain(5, "C5"),
    "Z4": lambda: _mod_ring(4, "Z4"),
}


class CatalogEntry:
    """A catalog semiring and the recipe that rebuilds it; a plain record
    that nothing hashes, so no field is read-only."""

    __slots__ = ("id", "recipe", "semiring")

    def __init__(self, id, recipe, semiring):
        self.id, self.recipe, self.semiring = id, recipe, semiring


def build_recipe(recipe):
    """Re-evaluate a catalog recipe to its semiring."""
    kind = recipe[0]
    if kind == "named":
        return _NAMED[recipe[1]]()
    if kind == "product":
        return direct_product(build_recipe(recipe[1]), build_recipe(recipe[2]))
    if kind == "quotient":
        base = build_recipe(recipe[1])
        ideal = ideal_from_members(base, recipe[2])
        quotient, _ = bourne_quotient(base, ideal)
        return quotient
    raise ValueError(f"unknown recipe kind {kind!r}")


def builtin_catalog():
    """The built-in corpus: named semirings, two products, and the Bourne
    quotients of each base entry by each of its proper ideals."""
    entries = []

    def push(recipe, s):
        entries.append(CatalogEntry(id=s.id, recipe=recipe, semiring=s))

    bases = []
    for name in ("trivial", "B", "Z2", "C3", "C4", "C5", "Z4"):
        recipe = ("named", name)
        s = build_recipe(recipe)
        push(recipe, s)
        bases.append((recipe, s))
    for pair in (("B", "B"), ("B", "C3")):
        recipe = ("product", ("named", pair[0]), ("named", pair[1]))
        s = build_recipe(recipe)
        push(recipe, s)
        bases.append((recipe, s))

    for base_recipe, base in bases:
        for ideal in _proper_ideal_masks(base):
            recipe = ("quotient", base_recipe, tuple(mask_members(base, ideal)))
            quotient, _ = bourne_quotient(base, ideal)
            push(recipe, quotient)
    return entries
