"""brandmatch: match brands to social-media influencers by posted-image content.

Pipeline: per-post classifier tags -> tokenized content documents -> bag-of-words
document-term matrix (optionally TF-IDF weighted) -> exact k-NN ranking against
a target brand row, plus a 2-D MDS embedding and SVG scatter plot of the
profile space.
"""

__version__ = "0.1.0"

from .content_synthesis import ContentDocument, synthesize_document, tokenize
from .embedding import Embedding2D, classical_mds, jacobi_eigh, smacof_refine, stress
from .errors import (
    BrandMatchError,
    DegenerateEmbeddingWarning,
    DimensionMismatchError,
    EmptyCorpusError,
    InvalidDistanceMatrixError,
    MalformedFileError,
    MissingProfileFileError,
    UnknownCategoryError,
    UnknownTargetError,
)
from .fixtures import (
    DEFAULT_CATEGORIES,
    FixtureSpec,
    Xorshift64Star,
    generate_brand_profile,
    generate_profile_set,
)
from .matcher import MatchResult, euclidean_distance, knn_match, pairwise_distances
from .profile_store import (
    Post,
    Profile,
    ProfileSet,
    TagPrediction,
    apply_image_cap,
    load_profile,
    load_profile_set,
    parse_user_list,
    save_profile,
    serialize_profile,
)
from .vectorizer import (
    DocTermMatrix,
    Vocabulary,
    Weighting,
    build_vocabulary,
    count_vectorize,
    export_matrix_tsv,
    tfidf_transform,
)
from .visualization import PALETTE, PlotSpec, emit_scatter_svg

__all__ = [
    "BrandMatchError",
    "ContentDocument",
    "DEFAULT_CATEGORIES",
    "DegenerateEmbeddingWarning",
    "DimensionMismatchError",
    "DocTermMatrix",
    "Embedding2D",
    "EmptyCorpusError",
    "FixtureSpec",
    "InvalidDistanceMatrixError",
    "MalformedFileError",
    "MatchResult",
    "MissingProfileFileError",
    "PALETTE",
    "PlotSpec",
    "Post",
    "Profile",
    "ProfileSet",
    "TagPrediction",
    "UnknownCategoryError",
    "UnknownTargetError",
    "Vocabulary",
    "Weighting",
    "Xorshift64Star",
    "apply_image_cap",
    "build_vocabulary",
    "classical_mds",
    "count_vectorize",
    "emit_scatter_svg",
    "euclidean_distance",
    "export_matrix_tsv",
    "generate_brand_profile",
    "generate_profile_set",
    "jacobi_eigh",
    "knn_match",
    "load_profile",
    "load_profile_set",
    "pairwise_distances",
    "parse_user_list",
    "save_profile",
    "serialize_profile",
    "smacof_refine",
    "stress",
    "synthesize_document",
    "tfidf_transform",
    "tokenize",
]
