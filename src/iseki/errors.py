"""Exception types shared across the package, and the one rule that
turns integer input into an int or a RangeError."""

from operator import index


class IsekiError(Exception):
    """Base class for all package errors."""


class RangeError(IsekiError):
    """An input is malformed: a table of the wrong shape, an entry or an
    element out of range, or a mask that is not an ideal."""


class AxiomViolation(IsekiError):
    """A semiring axiom fails; carries the axiom name and a concrete witness.

    `witness` is a tuple of element indices: (a, b) for commutativity,
    (a,) for identity/absorption, (a, b, c) for associativity and
    distributivity.
    """

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = tuple(int(w) for w in witness)
        super().__init__(f"axiom {axiom!r} fails at witness {self.witness}")


class InvalidHomomorphism(IsekiError):
    """A map between semirings breaks one of the preservation laws."""

    def __init__(self, law, witness):
        self.law = law
        self.witness = tuple(int(w) for w in witness)
        super().__init__(f"homomorphism law {law!r} fails at {self.witness}")


class SizeLimitExceeded(IsekiError):
    """A construction or search exceeds its hard size bound."""


class EmptyFamily(IsekiError):
    """A sweep was given an empty corpus."""


class ImproperIdeal(IsekiError):
    """A proper ideal was required but the whole semiring was supplied."""


class ParseError(IsekiError, ValueError):
    """Input does not match the expected schema: a JSON document, a corpus
    of documents, or a spectrum class name."""


class ContractionFails(IsekiError):
    """The ideal class is not stable under preimage for this homomorphism;
    carries the class name and the witness ``{"point", "preimage"}``."""

    def __init__(self, cls, witness):
        self.witness = witness
        super().__init__(f"class {cls} is not stable under preimage: {witness}")


class HypothesisUnmet(IsekiError):
    """A theorem hypothesis does not hold for the given instance."""

    def __init__(self, hypothesis, detail=""):
        self.hypothesis = hypothesis
        msg = f"hypothesis not met: {hypothesis}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NoUnitDecomposition(IsekiError):
    """Internal inconsistency: 1 = x + y decomposition promised but absent."""


def as_int(value, what):
    """``value`` as an int, by the one rule for integer input (table
    entries, ``one``, map images, ideal members): ``operator.index``, so
    ints and numpy integers pass, and bool is rejected.  Anything else
    raises RangeError naming ``what``."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise RangeError(f"{what} {value!r} is not an integer")
