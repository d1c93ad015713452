"""brandmatch: match brands to social-media influencers by posted-image content.

Pipeline: per-post classifier tags -> tokenized content documents -> bag-of-words
document-term matrix (optionally TF-IDF weighted) -> exact k-NN ranking against
a target brand row, plus a 2-D MDS embedding and SVG scatter plot of the
profile space.
"""

__version__ = "0.1.0"

from .content_synthesis import ContentDocument, synthesize_document, tokenize
from .embedding import Embedding2D, classical_mds, pairwise_distances, smacof_refine, stress
from .errors import (
    BrandMatchError,
    EmptyCorpusError,
    MalformedFileError,
    MissingProfileFileError,
    UnknownTargetError,
)
from .fixtures import (
    FixtureSpec,
    Xorshift64Star,
    generate_brand_profile,
    generate_profile_set,
)
from .matcher import MatchResult, knn_match
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
)
from .vectorizer import (
    DocTermMatrix,
    build_vocabulary,
    count_vectorize,
    export_matrix_tsv,
    tfidf_transform,
)
from .visualization import emit_scatter_svg

__all__ = [
    "BrandMatchError",
    "ContentDocument",
    "DocTermMatrix",
    "Embedding2D",
    "EmptyCorpusError",
    "FixtureSpec",
    "MalformedFileError",
    "MatchResult",
    "MissingProfileFileError",
    "Post",
    "Profile",
    "ProfileSet",
    "TagPrediction",
    "UnknownTargetError",
    "Xorshift64Star",
    "apply_image_cap",
    "build_vocabulary",
    "classical_mds",
    "count_vectorize",
    "emit_scatter_svg",
    "export_matrix_tsv",
    "generate_brand_profile",
    "generate_profile_set",
    "knn_match",
    "load_profile",
    "load_profile_set",
    "pairwise_distances",
    "parse_user_list",
    "save_profile",
    "smacof_refine",
    "stress",
    "synthesize_document",
    "tfidf_transform",
    "tokenize",
]
