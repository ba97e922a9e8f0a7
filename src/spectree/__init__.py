"""Verification workbench for spectral-radius conditions forcing tree
subgraphs: extremal family constructors, spectral bounds and certificates,
exact containment engines, Turán-type checks and campaign harness."""

__version__ = "0.1.0"

from .graphs import (
    Broom,
    Complete,
    CompleteSplit,
    CompleteSplitPlus,
    Explicit,
    GeneralizedBroom,
    Graph,
    Path,
    Spider,
    Star,
    build_family,
    canonical_key,
    canonical_keys,
    decode_graph6,
    disjoint_union,
    encode_graph6,
    join,
    m_copies,
    neighborhood_shells,
    parse_edge_list,
    write_edge_list,
)
from .spectral import (
    QuotientCertificate,
    SpectralResult,
    WalkSumDecomposition,
    bound_edges,
    bound_min_degree,
    dense_core_witness,
    lemma1_certificate,
    mu_S_closed,
    mu_S_plus_bounds,
    spectral_radius,
    walk_sum_B_u,
)
from .embed import (
    Embedding,
    PathStats,
    all_trees_of_order,
    contains_tree,
    find_linear_forest,
    fits_in_S,
    is_valid_embedding,
    longest_path_stats,
    proof_guided_spider_embed,
)
from .turan import (
    LemmaVerdict,
    TuranBound,
    bound_ell_P3,
    bound_linear_forest,
    bound_path,
    check_lemma,
    edge_threshold_S_plus,
)
from .enumeration import (
    all_graphs,
    perturb_extremal,
    random_graph,
)
from .harness import (
    CampaignSpec,
    Source,
    VerificationReport,
    run_campaign,
    write_report,
)
