"""Agglomerative hierarchical clustering without tie-break arbitrariness.

When several between-cluster distances tie for shortest, the classical
procedure must pick one pair and different picks give different trees. The
engine here merges every group of mutually tied clusters in a single step
instead, producing one tree per input whose nodes may have more than two
children and carry a height interval [h_lower, h_upper] showing how far the
tie stretched. The classical engine and a full enumeration of its tie-break
outcomes are included for comparison and testing.
"""

from .agglomerate import (
    POLICIES,
    POLICY_INTERVAL,
    POLICY_NATURAL,
    POLICY_SHORTEST,
    TIEBREAKS,
    ClusterState,
    GroupRecord,
    IterationRecord,
    MergeTrace,
    ReversalReport,
    cluster_pair_group,
    cluster_variable_group,
    detect_reversals,
    enumerate_pair_group,
    fusion_value,
    tie_groups,
)
from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    DuplicateLabel,
    DuplicatePair,
    EmptyInput,
    FormatError,
    FusionFallbackWarning,
    InvalidAlpha,
    MissingDistance,
    MissingPair,
    MultidendroError,
    NegativeValue,
    OutOfRange,
    ParseError,
    PolicyUnavailable,
    TooManySolutions,
    UnresolvedHeights,
    UnsupportedMethod,
    ZeroDistanceWarning,
)
from .linkage import (
    METHOD_KINDS,
    BlockView,
    MethodSpec,
    VGParams,
    centroid_oracle,
    direct_distance,
    jbw_oracle,
    pg_distance,
    vg_distance,
    vg_distance_tabular,
)
from .proximity import (
    FORMATS,
    KIND_DISTANCE,
    KIND_FROM_SIMILARITY,
    ProximityMatrix,
    comparison_value,
    parse_matrix,
    round_to_precision,
    serialize_matrix,
    similarity_to_dissimilarity,
)
from .render import render_svg, render_text
from .tree import (
    Internal,
    Leaf,
    MultivaluedTree,
    TreeReport,
    cophenetic_matrix,
    internal,
    parse_newick_extended,
    parse_records,
    records_to_json,
    resolve_height,
    to_newick_extended,
    to_records,
    tree_equal,
)
from .tree import validate as validate_tree

__version__ = "0.1.0"
