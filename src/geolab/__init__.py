"""geolab: numerical experiments with closed geodesics on surfaces.

Surfaces as level sets or charts, geodesic shooting, periodic Jacobi
spectra (Morse index / nullity), geodesic-network vertex analysis,
conformal vertex splitting, ambient extension of normal fields, and
sweepout upper bounds for the widths of the length functional.
"""

__version__ = "0.1.0"

from .surfaces import (
    MetricTensor,
    SurfaceModel,
    ConformalFactor,
    conformal_geodesic_curvature,
    gauss_curvature,
    make_cylinder,
    make_ellipsoid,
    make_flat_chart,
    make_mk,
    make_sphere,
    metric_at,
    sphere_exp_chart,
    surface_from_config,
)
from .geodesics import (
    GeodesicCurve,
    close_geodesic,
    curve_from_samples,
    curve_length,
    geodesic_curvature_profile,
    hausdorff_distance,
    sample_great_circle,
    sample_level_circle,
)
from .jacobi import (
    SpectrumReport,
    cover_spectra,
    degeneracy_criterion_mk,
    jacobi_spectrum,
    network_index,
    second_variation,
)
from .networks import (
    GeodesicNetwork,
    VertexRecord,
    check_appendix_bounds,
    detect_vertices,
    is_g_plus,
    weighted_vertex_count,
)
from .splitting import (
    ConformalFactorField,
    DetourCurve,
    build_detour,
    conformal_factor_for,
    reduce_vertex_fully,
    split_vertex,
)
from .extension import (
    AmbientField,
    cross_extension,
    extend_normal_field,
    flow_gram_matrix,
    verify_second_variation_match,
)
from .widths import (
    OneSweepout,
    WidthBound,
    ellipsoid_experiment,
    guth_p_sweepout_bound,
    level_circle_sweepout,
    mk_multiplicity_experiment,
    round_sphere_width,
)
