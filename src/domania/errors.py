"""Exception types. Each carries a witness payload where the failure has one."""


class DomaniaError(Exception):
    """Base class; `witness` holds whatever object exhibits the failure."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# basis construction
class NotAntisymmetric(DomaniaError):
    pass


class NoLeastElement(DomaniaError):
    pass


class NotConsistentlyComplete(DomaniaError):
    pass


class UnknownToken(DomaniaError):
    pass


# function spaces / embeddings
class InconsistentUnion(DomaniaError):
    pass


class NotAnEmbedding(DomaniaError):
    pass


# functor expressions
class UnboundParameter(DomaniaError):
    pass


class RecursiveExponent(DomaniaError):
    pass


class IsoFailure(DomaniaError):
    pass


# pers
class CarrierMismatch(DomaniaError):
    pass


class NotTotal(DomaniaError):
    pass


class IncoherentChain(DomaniaError):
    pass


class NotUniform(DomaniaError):
    def __init__(self, message, stage=None, witness=None):
        super().__init__(message, witness)
        self.stage = stage


# per-lfp
class TrivialParameter(DomaniaError):
    pass


class NotAnAlgebra(DomaniaError):
    pass


# dense
class TrivialFunctor(DomaniaError):
    pass


class NonDenseParameter(DomaniaError):
    pass


# eta
class NonDenseExponent(DomaniaError):
    pass


class NotWitnessed(DomaniaError):
    pass


class MalformedCode(DomaniaError):
    pass


# qcb
class NotT0(DomaniaError):
    pass


class InvalidSpace(DomaniaError):
    """A point set whose opens are no topology, or a family that is no
    pseudobase."""


class BadParameterPedigree(DomaniaError):
    pass


class NotWeaklyEquivalent(DomaniaError):
    pass


# cli
class UnboundName(DomaniaError):
    pass


class EquationSyntaxError(DomaniaError):
    """An equation text that does not parse; the message names the line and
    column where it goes wrong."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} at line {line}, col {col}")
        self.line = line
        self.col = col
