"""Exact stability-chamber combinatorics for affine ADE quivers.

The package computes affine root-system data, McKay correspondence data
for the finite subgroups of SL(2, C), wall-and-chamber structures on
spaces of stability vectors, and exhaustive stability certificates for
framed preprojective-algebra modules over small prime fields.
"""

from .errors import DomainError
from .fieldops import PrimeField, QQ, Rationals
from .rootsys import DynkinType, RootSystem, build_root_system
from .mckay import GroupSpec, McKayData, build_mckay, projective_mckay, verify_correspondence
from .quiverrep import (
    DimVector,
    FramedQuiver,
    FramedRep,
    INF,
    corner_bounds_check,
    direct_sum,
    framed_orbit_sum,
    framed_quiver,
    gauge_conjugate,
    is_pi_bar_module,
    moment_defect,
    reduce_rep,
)
from .stability import (
    ConeSpec,
    StabilityVector,
    cone_constraints,
    cone_membership,
    craw_wye_theta,
    make_theta,
    pair_dim,
    theta_from_nums,
)
from .walls import (
    Arrangement,
    SlicePlane,
    build_arrangement,
    chamber_label,
    figure_plane,
    interior_point,
    render_slice,
    sample_interior_points,
    sign_vector,
)
from .stabcheck import (
    HNFiltration,
    StabilityReport,
    SubmoduleLattice,
    hn_filtration,
    is_framing_cyclic,
    spin,
    stability_report,
    submodule_lattice,
    tangent_dimension,
)

__version__ = "0.1.0"
