"""Command-line front end: validate, match, embed, synth.

Each stage of the pipeline is independently runnable. Every command is a pure
function of its input files and flags; inputs are never mutated. Exit codes
are listed in FORMATS.md so shell pipelines can branch on failures.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import __version__
from .content_synthesis import DEFAULT_TOP_K, synthesize_document
from .embedding import classical_mds, smacof_refine
from .errors import (
    BrandMatchError,
    DuplicateUsernameError,
    EmptyCorpusError,
    MalformedFileError,
    MissingProfileFileError,
    ScoreLengthMismatchError,
    SingletonSetError,
    TargetOutOfRangeError,
    UnknownTargetError,
)
from .fixtures import (
    DEFAULT_NOISE,
    DEFAULT_POSTS_PER_USER,
    DEFAULT_SEED,
    DEFAULT_USERS_PER_CATEGORY,
    FixtureSpec,
    generate_brand_profile,
    generate_profile_set,
)
from .matcher import DEFAULT_K, knn_match, pairwise_distances
from .profile_store import (
    DEFAULT_IMAGE_CAP,
    ProfileSet,
    apply_image_cap,
    load_profile,
    load_profile_set,
    parse_user_list,
    save_profile,
)
from .vectorizer import (
    DocTermMatrix,
    Weighting,
    build_vocabulary,
    count_vectorize,
    export_matrix_tsv,
    tfidf_transform,
)
from .visualization import PlotSpec, emit_scatter_svg

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_MALFORMED = 4
EXIT_BAD_TARGET = 5
EXIT_EMPTY_CORPUS = 6

_ERROR_EXIT_CODES: tuple[tuple[type, int], ...] = (
    (MissingProfileFileError, EXIT_MISSING_INPUT),
    (MalformedFileError, EXIT_MALFORMED),
    (ScoreLengthMismatchError, EXIT_MALFORMED),
    (DuplicateUsernameError, EXIT_MALFORMED),
    (UnknownTargetError, EXIT_BAD_TARGET),
    (TargetOutOfRangeError, EXIT_BAD_TARGET),
    (EmptyCorpusError, EXIT_EMPTY_CORPUS),
    (SingletonSetError, EXIT_EMPTY_CORPUS),
    (BrandMatchError, EXIT_FAILURE),
)


@dataclass(frozen=True)
class RunConfig:
    user_list: Path
    metadata_dir: Path
    target: Optional[str] = None
    top_k_tags: int = DEFAULT_TOP_K
    weighting: Weighting = Weighting.COUNTS
    k_neighbors: int = DEFAULT_K
    image_cap: Optional[int] = DEFAULT_IMAGE_CAP
    output: Optional[Path] = None
    embedding_out: Optional[Path] = None
    plot_out: Optional[Path] = None
    export_matrix: Optional[Path] = None


def _exit_code_for(error: BrandMatchError) -> int:
    for error_type, code in _ERROR_EXIT_CODES:
        if isinstance(error, error_type):
            return code
    return EXIT_FAILURE


def _build_matrix(config: RunConfig) -> tuple[ProfileSet, DocTermMatrix]:
    profile_set = load_profile_set(config.user_list, config.metadata_dir,
                                   target_username=config.target,
                                   image_cap=config.image_cap)
    documents = [synthesize_document(p, top_k=config.top_k_tags)
                 for p in profile_set.profiles]
    vocabulary = build_vocabulary(documents)
    matrix = count_vectorize(documents, vocabulary)
    if config.weighting is Weighting.TFIDF:
        matrix = tfidf_transform(matrix)
    if config.export_matrix is not None:
        config.export_matrix.write_text(export_matrix_tsv(matrix), encoding="utf-8")
    return profile_set, matrix


def cmd_validate(config: RunConfig) -> int:
    """Report per-profile post/image counts and schema errors; 0 iff all usable."""
    try:
        entries = parse_user_list(config.user_list)
    except FileNotFoundError:
        print(f"error: user list not found: {config.user_list}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except DuplicateUsernameError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_MALFORMED

    ok_count = warning_count = error_count = 0
    vectorizable: dict[str, bool] = {}
    for username, _ in entries:
        try:
            full = load_profile(config.metadata_dir / f"{username}.json", username)
        except BrandMatchError as error:
            print(f"{username}\tERROR: {error}")
            error_count += 1
            continue
        capped = apply_image_cap(full, config.image_cap)
        vectorizable[username] = capped.is_vectorizable
        if capped.is_vectorizable:
            ok_count += 1
            status = "ok"
        else:
            warning_count += 1
            status = "warning: no classifiable media"
        print(f"{username}\tposts={len(full.posts)}\timages={capped.classifiable_post_count}"
              f"\t{status}")

    if config.target is not None:
        if config.target not in {u for u, _ in entries}:
            print(f"{config.target}\tERROR: target not in user list")
            error_count += 1
        elif config.target in vectorizable and not vectorizable[config.target]:
            print(f"{config.target}\tERROR: target has no classifiable media")
            error_count += 1
    if vectorizable and not any(vectorizable.values()):
        print("ERROR: no profile has classifiable media; nothing to match on")
        error_count += 1

    print(f"validated {len(entries)} profiles: {ok_count} ok, "
          f"{warning_count} warnings, {error_count} errors")
    return EXIT_OK if error_count == 0 else EXIT_FAILURE


def cmd_match(config: RunConfig) -> int:
    """Load, synthesize, vectorize, and rank the k nearest influencers to the target."""
    profile_set, matrix = _build_matrix(config)
    assert profile_set.target_index is not None
    m = len(profile_set.profiles)
    if config.k_neighbors > m - 1:
        print(f"warning: k={config.k_neighbors} truncated to {m - 1} "
              f"(only {m} profiles)", file=sys.stderr)
    result = knn_match(matrix, profile_set.target_index, k=config.k_neighbors)

    print("Target profile is:")
    print(result.target_username)
    print()
    print("Most closely related profiles are:")
    for rank, (username, distance) in enumerate(result.neighbors, start=1):
        print(f"{rank}\t{username}\t{distance:.6f}")
    if config.output is not None:
        config.output.write_text(result.report(), encoding="utf-8")
    return EXIT_OK


def _plot_category_order(profile_set: ProfileSet) -> tuple[str, ...]:
    order: list[str] = []
    for i, profile in enumerate(profile_set.profiles):
        if i == profile_set.target_index or profile.category is None:
            continue
        if profile.category not in order:
            order.append(profile.category)
    return tuple(order)


def cmd_embed_and_plot(config: RunConfig) -> int:
    """Embed all profiles to 2-D (classical MDS + SMACOF) and write TSV + SVG."""
    profile_set, matrix = _build_matrix(config)
    distances = pairwise_distances(matrix)
    categories = tuple(p.category for p in profile_set.profiles)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        initial = classical_mds(distances, row_labels=matrix.row_labels,
                                categories=categories, points=matrix.values)
        refined = smacof_refine(distances, initial)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)

    embedding_path = config.embedding_out or Path("embedding.tsv")
    lines = ["username\tcategory\tx\ty"]
    for label, category, (x, y) in zip(refined.row_labels, categories,
                                       refined.coordinates):
        lines.append(f"{label}\t{category or ''}\t{float(x)!r}\t{float(y)!r}")
    embedding_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    plot_path = config.plot_out or Path("plot.svg")
    spec = PlotSpec(title=f"Target brand profile: {config.target}",
                    category_order=_plot_category_order(profile_set))
    svg = emit_scatter_svg(refined, spec, target_index=profile_set.target_index)
    plot_path.write_text(svg, encoding="utf-8")
    print(f"embedding written to {embedding_path}")
    print(f"plot written to {plot_path}")
    return EXIT_OK


def cmd_synth(out_dir: Path, seed: int, users_per_category: int, posts_per_user: int,
              noise: float, brand_category: Optional[str],
              brand_name: Optional[str]) -> int:
    """Write a synthetic fixture: user list plus one metadata file per profile."""
    spec = FixtureSpec(seed=seed, users_per_category=users_per_category,
                       posts_per_user=posts_per_user, cross_category_noise=noise)
    profiles = list(generate_profile_set(spec).profiles)
    if brand_category is not None:
        username = brand_name or f"{brand_category}_brand"
        profiles.append(generate_brand_profile(spec, brand_category, username))

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"# synthetic fixture: seed={seed} users_per_category={users_per_category} "
             f"posts_per_user={posts_per_user} noise={noise}"]
    for profile in profiles:
        save_profile(profile, out_dir / f"{profile.username}.json")
        lines.append(f"{profile.username},{profile.category}")
    (out_dir / "users.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(profiles)} profiles to {out_dir}")
    return EXIT_OK


def _add_pipeline_arguments(parser: argparse.ArgumentParser, *, with_target: bool) -> None:
    parser.add_argument("--users", required=True, type=Path,
                        help="user list file (username[,category] per line)")
    parser.add_argument("--metadata", required=True, type=Path,
                        help="directory of <username>.json metadata files")
    parser.add_argument("--target", required=with_target, default=None,
                        help="target brand username")
    parser.add_argument("--top-k-tags", type=int, default=DEFAULT_TOP_K,
                        help="tags taken per image (default %(default)s)")
    parser.add_argument("--image-cap", type=int, default=DEFAULT_IMAGE_CAP,
                        help="images analyzed per profile (default %(default)s)")
    parser.add_argument("--weighting", choices=[w.value for w in Weighting],
                        default=Weighting.COUNTS.value,
                        help="matrix weighting (default %(default)s)")
    parser.add_argument("--export-matrix", type=Path, default=None,
                        help="write the document-term matrix as TSV")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        user_list=args.users,
        metadata_dir=args.metadata,
        target=args.target,
        top_k_tags=args.top_k_tags,
        weighting=Weighting(args.weighting),
        k_neighbors=getattr(args, "k", DEFAULT_K),
        image_cap=args.image_cap,
        output=getattr(args, "output", None),
        embedding_out=getattr(args, "embedding", None),
        plot_out=getattr(args, "plot", None),
        export_matrix=args.export_matrix,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brandmatch",
        description="Match brands to influencers by image-tag content similarity.")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    validate = subparsers.add_parser("validate", help="check metadata files and report")
    _add_pipeline_arguments(validate, with_target=False)

    match = subparsers.add_parser("match", help="rank influencers nearest the target brand")
    _add_pipeline_arguments(match, with_target=True)
    match.add_argument("--k", type=int, default=DEFAULT_K,
                       help="neighbors to report (default %(default)s)")
    match.add_argument("--output", type=Path, default=None,
                       help="write the match report to this path")

    embed = subparsers.add_parser("embed", help="2-D MDS embedding and SVG plot")
    _add_pipeline_arguments(embed, with_target=True)
    embed.add_argument("--embedding", type=Path, default=None,
                       help="embedding TSV path (default embedding.tsv)")
    embed.add_argument("--plot", type=Path, default=None,
                       help="SVG plot path (default plot.svg)")

    synth = subparsers.add_parser("synth", help="generate a synthetic fixture data set")
    synth.add_argument("--out", required=True, type=Path, help="output directory")
    synth.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="PRNG seed (default %(default)s)")
    synth.add_argument("--users-per-category", type=int, default=DEFAULT_USERS_PER_CATEGORY)
    synth.add_argument("--posts-per-user", type=int, default=DEFAULT_POSTS_PER_USER)
    synth.add_argument("--noise", type=float, default=DEFAULT_NOISE,
                       help="cross-category tag fraction (default %(default)s)")
    synth.add_argument("--brand", default=None, metavar="CATEGORY",
                       help="also generate a brand profile over this category")
    synth.add_argument("--brand-name", default=None,
                       help="brand username (default <category>_brand)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(_config_from_args(args))
        if args.command == "match":
            return cmd_match(_config_from_args(args))
        if args.command == "embed":
            return cmd_embed_and_plot(_config_from_args(args))
        if args.command == "synth":
            return cmd_synth(args.out, args.seed, args.users_per_category,
                             args.posts_per_user, args.noise, args.brand,
                             args.brand_name)
        raise AssertionError(f"unhandled command {args.command}")
    except BrandMatchError as error:
        print(f"error: {error}", file=sys.stderr)
        return _exit_code_for(error)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
