"""Turn per-post tag predictions into one tokenized content document per profile."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .profile_store import Profile

# Maximal runs of >=2 alphanumerics; everything else (commas, hyphens,
# apostrophes, whitespace) separates. Single-character runs are dropped.
_TOKEN_RE = re.compile(r"[^\W_]{2,}", re.UNICODE)

DEFAULT_TOP_K = 3


@dataclass(frozen=True)
class ContentDocument:
    username: str
    tokens: tuple[str, ...]


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs of length >= 2, in left-to-right order."""
    return [m.lower() for m in _TOKEN_RE.findall(text)]


def synthesize_document(profile: Profile, top_k: int = DEFAULT_TOP_K) -> ContentDocument:
    """Concatenate the top ``top_k`` tag labels of every image post into tokens.

    Post order then tag-rank order; video posts and posts without predictions
    contribute nothing, and a tag counts whatever its confidence. Multi-word
    labels split into word tokens, so "golden retriever" and "labrador
    retriever" share a token. A profile with no classifiable media yields an
    empty document.
    """
    if top_k < 1:
        raise ValueError("top_k must be a positive integer")
    tokens: list[str] = []
    # a profile repeats a few labels over hundreds of posts: tokenize each once
    label_tokens: dict[str, list[str]] = {}
    for post in profile.posts:
        if post.is_video:
            continue
        for prediction in post.tag_predictions[:top_k]:
            label = prediction.label
            words = label_tokens.get(label)
            if words is None:
                words = label_tokens[label] = tokenize(label)
            tokens.extend(words)
    return ContentDocument(username=profile.username, tokens=tuple(tokens))
