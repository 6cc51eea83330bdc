"""Error taxonomy for graph construction, inference, and the CLI.

Every failure the library raises on purpose derives from ConfounderError,
so callers can catch one base. The CLI maps the leaf types to exit codes.
"""


class ConfounderError(Exception):
    """Base for all errors raised deliberately by this package."""


class GraphError(ConfounderError):
    """Structural problem with a graph or a graph operation's arguments."""


class CycleDetected(GraphError):
    """The edge set admits a directed cycle. The message names one cycle."""


class UnknownNode(GraphError):
    """A name was used that is not a node of the graph."""


class DuplicateEdge(GraphError):
    """The same directed edge was declared twice."""


class SelfLoop(GraphError):
    """An edge from a node to itself."""


class MissingExposureOrOutcome(GraphError):
    """A DAG needs exactly one exposure and one distinct outcome."""


class InvalidNodeName(GraphError):
    """Node names must be non-empty and contain no whitespace or commas."""


class OverlappingSets(GraphError):
    """Node sets passed to a separation query must be pairwise disjoint."""


class OverlappingConditioningSet(OverlappingSets):
    """A path endpoint appears in the conditioning set."""


class InvalidPath(GraphError):
    """Node sequence is not a path of the graph (missing edge or repeat)."""


class NonCovariateInSet(GraphError):
    """An adjustment set member is outside the DAG's covariate pool."""


class NotACovariate(GraphError):
    """The variable being classified is outside the covariate pool."""


class SizeLimit(ConfounderError):
    """Input exceeds a documented size ceiling for the operation."""


class ModelError(ConfounderError):
    """Problem with a discrete model's tables or a query against them."""


class MissingModel(ConfounderError):
    """The operation needs a distribution but only a graph was supplied."""


class BadProbability(ModelError):
    """A table entry is negative, exceeds one, or a row does not sum to one."""


class IncompleteAssignment(ModelError):
    """A joint-probability query must assign a state to every node."""


class UnknownState(ModelError):
    """A state value is outside the node's state space."""


class NonBinaryExposure(ModelError):
    """Effect measures need the exposure to take exactly the states 0 and 1."""


class ZeroProbabilityCondition(ModelError):
    """Conditioning event has probability zero."""


class PositivityViolation(ModelError):
    """A stratum needed for standardization has a zero-probability arm."""


class ParseError(ConfounderError):
    """A graph or model file failed to parse. Carries a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IncompleteReport(ConfounderError):
    """A classification report lacks the verdicts an implication check needs."""


class InvalidConfig(ConfounderError):
    """A configuration value (fuzzing, CLI flags) is out of range or missing."""
