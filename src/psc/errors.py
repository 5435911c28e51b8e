"""Exception hierarchy shared by the whole package."""


class PscError(Exception):
    """Base class for all library errors."""


# -- embedding construction / mutation ---------------------------------------

class AsymmetricAdjacency(PscError):
    pass


class Disconnected(PscError):
    pass


class NonPlanarEmbedding(PscError):
    pass


class DuplicateNeighbor(PscError):
    pass


class UnknownVertex(PscError):
    pass


class DuplicateRow(PscError):
    pass


class AlreadyAdjacent(PscError):
    pass


class NotOnSameFace(PscError):
    pass


class WouldDisconnect(PscError):
    pass


# -- generators --------------------------------------------------------------

class BadDelta(PscError):
    pass


class ExhaustedAttempts(PscError):
    pass


# -- solvers -----------------------------------------------------------------

class BadColoring(PscError):
    """A coloring file that is not {"palette": int, "colors": {v: int}}."""


# -- catalog -----------------------------------------------------------------

class DeltaTooLarge(PscError):
    pass


# -- discharge engine --------------------------------------------------------

class WeakHighDegree(PscError):
    """A weak vertex of degree > 5 would indicate an engine bug."""


# -- reducer -----------------------------------------------------------------

class NoWitnessFound(PscError):
    """No reducible configuration found; carries a dump of the graph."""

    def __init__(self, message, graph_text=None):
        super().__init__(message)
        self.graph_text = graph_text


class ExtensionStuck(PscError):
    pass


class MergeInfeasible(PscError):
    pass
