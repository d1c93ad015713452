"""Command-line front end: validate, match, embed, synth.

Each stage of the pipeline is independently runnable. Every command is a pure
function of its input files and flags; inputs are never mutated. Exit codes
are listed in FORMATS.md so shell pipelines can branch on failures.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from pathlib import Path
from typing import Optional

from . import __version__
from .content_synthesis import DEFAULT_TOP_K, ContentDocument, synthesize_document
from .embedding import classical_mds, pairwise_distances, smacof_refine
from .errors import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    BrandMatchError,
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
from .matcher import DEFAULT_K, knn_match
from .profile_store import (
    DEFAULT_IMAGE_CAP,
    _map_in_two_processes,
    apply_image_cap,
    check_username,
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

# rendered outputs, written together by _write_outputs once every one is ready
_Outputs = list[tuple[Path, str]]


def _load_documents(args: argparse.Namespace) -> tuple[list[ContentDocument], int, tuple]:
    """Each profile's document, the target's row and each row's category; the profiles die here."""
    profile_set = load_profile_set(args.users, args.metadata, target_username=args.target,
                                   image_cap=args.image_cap)
    # synthesize_document tokenizes each label once per call, so every document would
    # hold its own copies of the same tokens; one dict per load keeps one string per
    # token, as _build_profile does for labels, and the copies die with each call's result
    strings: dict[str, str] = {}
    shared = strings.setdefault
    documents = []
    for profile in profile_set.profiles:
        tokens = synthesize_document(profile, top_k=args.top_k_tags).tokens
        documents.append(ContentDocument(profile.username, tuple(map(shared, tokens, tokens))))
    target_index = profile_set.target_index
    categories = tuple(p.category for p in profile_set.profiles)
    del profile_set
    # The records were built with the collector paused. Freed, their tuples and floats
    # stay on CPython's free lists, which keep whole memory arenas in use; only a full
    # collection empties those lists, so the arenas go back to the OS before embed's
    # layout loads numpy. match needs it too, though it loads no numpy: without it RSS
    # stays at the load's level and the matrix stage and export grow on top of it (on
    # history-ingest, match then peaked about 1 MB above the load, at 26.8 MB against 25.8).
    gc.collect()
    return documents, target_index, categories


def _check_output_paths(args: argparse.Namespace) -> None:
    """Reject an output path that names the user list, a listed metadata file or another output."""
    def key(path: Path) -> object:  # a file's inode once it exists, else its resolved path
        try:
            status = path.stat()
        except OSError:
            return os.path.realpath(path)
        return status.st_dev, status.st_ino

    taken = {key(path): path for path in (args.users, *(
        args.metadata / f"{username}.json" for username, _ in parse_user_list(args.users)))}
    for name in ("export_matrix", "output", "embedding", "plot"):
        path = getattr(args, name, None)
        if path is None:
            continue
        other = taken.setdefault(key(path), path)
        if other is not path:
            raise ValueError(f"output path {path} names the same file as {other}")


def _build_matrix(args: argparse.Namespace) -> tuple[DocTermMatrix, int, tuple, _Outputs]:
    """The matrix, the target's row, every row's category and the rendered ``--export-matrix``."""
    _check_output_paths(args)
    documents, target_index, categories = _load_documents(args)
    vocabulary = build_vocabulary(documents)
    if not documents[target_index].tokens:
        raise UnknownTargetError(f"target {args.target!r} has no classifiable media")
    matrix = count_vectorize(documents, vocabulary)
    if args.weighting == "tfidf":
        matrix = tfidf_transform(matrix)
    outputs: _Outputs = []
    if args.export_matrix is not None:
        outputs.append((args.export_matrix, export_matrix_tsv(matrix)))
    return matrix, target_index, categories, outputs


def _check_flag_values(args: argparse.Namespace) -> None:
    """Reject flag values below 1 before any file is read, with the library's messages."""
    for flag, name in (("image_cap", "image_cap"), ("top_k_tags", "top_k"), ("k", "k")):
        if getattr(args, flag, 1) < 1:
            raise ValueError(f"{name} must be a positive integer")


def _write_outputs(outputs: _Outputs) -> None:
    """Write every rendered output; if one write fails, remove every file it opened."""
    opened: list[Path] = []
    try:
        for path, text in outputs:
            with open(path, "w", encoding="utf-8") as file:
                opened.append(path)
                file.write(text)
    except OSError:
        # a failed run leaves no part of its output behind; a path whose open
        # failed (a directory, a read-only file) was never written, so it stays
        for path in opened:
            path.unlink(missing_ok=True)
        raise


def cmd_validate(args: argparse.Namespace) -> int:
    """Report per-profile post/image counts and schema errors; 0 iff all usable."""
    usernames = [username for username, _ in parse_user_list(args.users)]

    def check(username: str) -> tuple[int, int, bool] | str:  # counts, target lacks tokens
        try:
            full = load_profile(args.metadata / f"{username}.json", username)
        except BrandMatchError as error:
            return str(error)
        capped = apply_image_cap(full, args.image_cap)
        return (len(full.posts), capped.classifiable_post_count, username == args.target
                and not synthesize_document(capped, top_k=args.top_k_tags).tokens)

    ok_count = warning_count = error_count = 0
    empty_target = False
    for result, username in zip(_map_in_two_processes(check, usernames), usernames):
        if isinstance(result, str):
            print(f"{username}\tERROR: {result}")
            error_count += 1
            continue
        posts, images, lacks_tokens = result
        empty_target |= lacks_tokens
        ok_count, warning_count = ok_count + bool(images), warning_count + (not images)
        status = "ok" if images else "warning: no classifiable media"
        print(f"{username}\tposts={posts}\timages={images}\t{status}")

    if args.target is not None:
        if args.target not in usernames:
            print(f"{args.target}\tERROR: target not in user list")
            error_count += 1
        elif empty_target:
            print(f"{args.target}\tERROR: target has no classifiable media")
            error_count += 1
    if not ok_count and (warning_count or not usernames):
        print("ERROR: no profile has classifiable media; nothing to match on")
        error_count += 1

    print(f"validated {len(usernames)} profiles: {ok_count} ok, "
          f"{warning_count} warnings, {error_count} errors")
    return EXIT_OK if error_count == 0 else EXIT_FAILURE


def cmd_match(args: argparse.Namespace) -> int:
    """Load, synthesize, vectorize, and rank the k nearest influencers to the target."""
    matrix, target_index, _, outputs = _build_matrix(args)
    result = knn_match(matrix, target_index, k=args.k)
    m = len(matrix.row_labels)
    if args.k > m - 1:
        print(f"warning: k={args.k} truncated to {m - 1} (only {m} profiles)",
              file=sys.stderr)
    report = result.report()
    if args.output is not None:
        outputs.append((args.output, report))
    _write_outputs(outputs)

    print("Target profile is:")
    print(result.target_username)
    print()
    print("Most closely related profiles are:")
    print(report.partition("\n")[2], end="")
    return EXIT_OK


def cmd_embed_and_plot(args: argparse.Namespace) -> int:
    """Embed all profiles to 2-D (classical MDS + SMACOF) and write TSV + SVG."""
    matrix, target_index, categories, outputs = _build_matrix(args)
    distances = pairwise_distances(matrix.values)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        refined = smacof_refine(distances, classical_mds(points=matrix.values))
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)

    lines = ["username\tcategory\tx\ty"]
    for label, category, (x, y) in zip(matrix.row_labels, categories, refined.coordinates):
        lines.append(f"{label}\t{category or ''}\t{float(x)!r}\t{float(y)!r}")
    svg = emit_scatter_svg(refined.coordinates, matrix.row_labels, categories,
                           f"Target brand profile: {args.target}", target_index=target_index)

    outputs += [(args.embedding, "\n".join(lines) + "\n"), (args.plot, svg)]
    _write_outputs(outputs)
    print(f"embedding written to {args.embedding}")
    print(f"plot written to {args.plot}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    """Write a synthetic fixture: user list plus one metadata file per profile."""
    spec = FixtureSpec(seed=args.seed, users_per_category=args.users_per_category,
                       posts_per_user=args.posts_per_user, cross_category_noise=args.noise)
    profiles = list(generate_profile_set(spec).profiles)
    if args.brand is not None:
        username = args.brand_name or f"{args.brand}_brand"
        check_username(username)
        if any(profile.username == username for profile in profiles):
            raise ValueError(f"brand name {username!r} names a generated influencer")
        profiles.append(generate_brand_profile(spec, args.brand, username))

    args.out.mkdir(parents=True, exist_ok=True)
    lines = [f"# synthetic fixture: seed={args.seed} "
             f"users_per_category={args.users_per_category} "
             f"posts_per_user={args.posts_per_user} noise={args.noise}"]
    for profile in profiles:
        save_profile(profile, args.out / f"{profile.username}.json")
        lines.append(f"{profile.username},{profile.category}")
    (args.out / "users.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(profiles)} profiles to {args.out}")
    return EXIT_OK


def _add_pipeline_arguments(parser: argparse.ArgumentParser, *, builds_matrix: bool) -> None:
    parser.add_argument("--users", required=True, type=Path,
                        help="user list file (username[,category] per line)")
    parser.add_argument("--metadata", required=True, type=Path,
                        help="directory of <username>.json metadata files")
    parser.add_argument("--target", required=builds_matrix, default=None,
                        help="target brand username")
    parser.add_argument("--top-k-tags", type=int, default=DEFAULT_TOP_K,
                        help="tags taken per image (default %(default)s)")
    parser.add_argument("--image-cap", type=int, default=DEFAULT_IMAGE_CAP,
                        help="images analyzed per profile (default %(default)s)")
    if builds_matrix:
        parser.add_argument("--weighting", choices=["counts", "tfidf"], default="counts",
                            help="matrix weighting (default %(default)s)")
        parser.add_argument("--export-matrix", type=Path, default=None,
                            help="write the document-term matrix as TSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brandmatch",
        description="Match brands to influencers by image-tag content similarity.")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    validate = subparsers.add_parser("validate", help="check metadata files and report")
    _add_pipeline_arguments(validate, builds_matrix=False)
    validate.set_defaults(run=cmd_validate)

    match = subparsers.add_parser("match", help="rank influencers nearest the target brand")
    _add_pipeline_arguments(match, builds_matrix=True)
    match.add_argument("--k", type=int, default=DEFAULT_K,
                       help="neighbors to report (default %(default)s)")
    match.add_argument("--output", type=Path, default=None,
                       help="write the match report to this path")
    match.set_defaults(run=cmd_match)

    embed = subparsers.add_parser("embed", help="2-D MDS embedding and SVG plot")
    _add_pipeline_arguments(embed, builds_matrix=True)
    embed.add_argument("--embedding", type=Path, default=Path("embedding.tsv"),
                       help="embedding TSV path (default %(default)s)")
    embed.add_argument("--plot", type=Path, default=Path("plot.svg"),
                       help="SVG plot path (default %(default)s)")
    embed.set_defaults(run=cmd_embed_and_plot)

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
    synth.set_defaults(run=cmd_synth)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flag_values(args)
        return args.run(args)
    except BrandMatchError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_FAILURE
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
