"""Built-in corpus of small semirings used by the sweep and the tests."""

from .ideals import _proper_ideal_masks
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


def named(name):
    """The named semiring ``name``, a key of the catalog's named bases."""
    return _NAMED[name]()


def builtin_catalog():
    """The built-in corpus: the named semirings, two products, and the
    Bourne quotients of each of them by each of its proper ideals."""
    bases = [named(name) for name in _NAMED]
    bases += [direct_product(named(a), named(b)) for a, b in (("B", "B"), ("B", "C3"))]
    quotients = [
        bourne_quotient(base, ideal)[0]
        for base in bases
        for ideal in _proper_ideal_masks(base)
    ]
    return bases + quotients
