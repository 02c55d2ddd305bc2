"""Exception types shared across geolab modules."""


class GeolabError(Exception):
    """Base class for all geolab errors."""


class PointOffSurface(GeolabError):
    """A point fails the on-surface tolerance |F(p)| <= tol."""


class ChartUnavailable(GeolabError):
    """No chart representation exists at the requested point."""


class LeftChartDomain(GeolabError):
    """Integration left the chart's parameter rectangle."""


class NoConvergence(GeolabError):
    """Iterative solver did not converge within its iteration budget."""


class DegenerateJacobian(GeolabError):
    """The shooting differential is singular (signals a Jacobi field)."""


class NotAGeodesic(GeolabError):
    """Input curve fails the geodesic test max|kappa| <= tol."""


class GridTooCoarse(GeolabError):
    """Spectral classification is ambiguous at this discretization."""


class AmbiguousCluster(GeolabError):
    """Two vertex clusters are closer than twice the clustering radius."""


class OffsetTooLarge(GeolabError):
    """Detour offset would leave the working ball."""


class VertexNotOnStrand(GeolabError):
    """Requested strand does not pass through the vertex."""


class NotReducible(GeolabError):
    """Nothing to split: the vertex order is below 3, or the detoured curve
    has no sample in the detour window, so its samples cannot carry the
    detour."""


class D0TooLarge(GeolabError):
    """Conformal-factor support annulus would touch another strand."""


class OriginMismatch(GeolabError):
    """Axis fields disagree at the crossing point."""


class NotGPlus(GeolabError):
    """Network is not closed curves on a level-set surface meeting only at
    transverse order-2 crossings."""


class EtaTooLarge(GeolabError):
    """Crossing-ball radius exceeds half the minimum inter-vertex distance."""


class FlowLeftSurface(GeolabError):
    """Flowed points drifted off-surface beyond tolerance."""


class SeedBudgetExhausted(GeolabError):
    """A required geodesic was not found within the seed budget."""


class ConfigInvalid(GeolabError):
    """Run configuration failed schema validation."""
