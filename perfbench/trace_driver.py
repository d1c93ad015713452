"""Run one ``brandmatch`` command with a span recorder at every layer boundary.

Usage: python3 trace_driver.py SPANS_OUT MANIFEST REQUEST_ID -- CLI_ARGS...

Every function that ``brandmatch.cli`` imports from a pipeline module is
replaced, in the ``cli`` namespace, by a wrapper that records a span (name,
layer, start, end, parent) and, after the span has closed, the counts the
benchmark reports. ``brandmatch.cli.main(CLI_ARGS)`` runs inside a root span.
Spans stay in memory and are written to SPANS_OUT as JSON at exit. MANIFEST
maps each username to the number of posts in its metadata file.

The driver exits with code 70 when a command succeeds although a layer it
must pass through recorded no span, so that a change to how ``cli`` reaches a layer cannot make
that layer silently vanish from the trace.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("profile_store", "content_synthesis", "vectorizer", "matcher", "embedding",
          "visualization")
EXIT_MISSING_SPAN = 70

_EXPECTED = {
    "validate": ("parse_user_list", "load_profile", "apply_image_cap"),
    "match": ("load_profile_set", "synthesize_document", "build_vocabulary",
              "count_vectorize", "knn_match"),
    "embed": ("load_profile_set", "synthesize_document", "build_vocabulary",
              "count_vectorize", "pairwise_distances", "classical_mds", "smacof_refine",
              "emit_scatter_svg"),
}


def expected_spans(argv: list[str]) -> set[str]:
    """Functions the command in ``argv`` must call, given its flags."""
    names = set(_EXPECTED[argv[0]])
    if argv[0] != "validate":
        if "--export-matrix" in argv:
            names.add("export_matrix_tsv")
        if "tfidf" in argv:
            names.add("tfidf_transform")
    return names


class Recorder:
    def __init__(self, manifest: dict[str, int]) -> None:
        self.manifest = manifest
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> dict:
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "layer": layer, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, function):
        layer = function.__module__.rsplit(".", 1)[-1]
        count = getattr(self, f"_count_{function.__name__}", None)
        signature = inspect.signature(function)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            history = function.__name__ == "smacof_refine"
            asked = kwargs.pop("return_history", False) if history else False
            if history:
                kwargs["return_history"] = True
            span = self.open(function.__name__, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(span)
            if history:
                refined, trail = result
                self.add("embedding.smacof_iters", len(trail) - 1)
                self.add("embedding.stress", refined.stress)
                return result if asked else refined
            if count is not None:
                count(result, signature.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def _read(self, path: Path, username: str, posts_kept: int) -> None:
        self.add("profile_store.bytes_read", os.stat(path).st_size)
        self.add("profile_store.posts_parsed", self.manifest[username])
        self.add("profile_store.posts_kept", posts_kept)

    def _count_load_profile(self, result, arguments: dict) -> None:
        self._read(Path(arguments["path"]), arguments["username"], len(result.posts))

    def _count_load_profile_set(self, result, arguments: dict) -> None:
        for profile in result.profiles:
            self._read(Path(arguments["metadata_dir"]) / f"{profile.username}.json",
                       profile.username, len(profile.posts))

    def _count_synthesize_document(self, result, arguments: dict) -> None:
        self.add("content_synthesis.tokens", len(result.tokens))

    def _count_build_vocabulary(self, result, arguments: dict) -> None:
        self.add("vectorizer.vocab_size", len(result))

    def _count_count_vectorize(self, result, arguments: dict) -> None:
        values = result.values
        self.add("vectorizer.density", int((values != 0).sum()) / max(values.size, 1))

    def _count_emit_scatter_svg(self, result, arguments: dict) -> None:
        self.add("visualization.svg_bytes", len(result.encode("utf-8")))


def main(argv: list[str]) -> int:
    spans_out, manifest_path, request_id, separator, *cli_argv = argv
    if separator != "--" or not cli_argv or cli_argv[0] not in _EXPECTED:
        print("usage: trace_driver.py SPANS_OUT MANIFEST REQUEST_ID -- "
              "{validate,match,embed} ...", file=sys.stderr)
        return 2
    recorder = Recorder(json.loads(Path(manifest_path).read_text(encoding="utf-8")))

    import brandmatch.cli as cli

    layer_modules = {f"brandmatch.{layer}" for layer in LAYERS}
    wrapped = set()
    for name, value in list(vars(cli).items()):
        if inspect.isfunction(value) and value.__module__ in layer_modules:
            setattr(cli, name, recorder.wrap(value))
            wrapped.add(value.__name__)

    root = recorder.open("main", "cli")
    try:
        code = cli.main(cli_argv)
    finally:
        recorder.close(root)

    missing = expected_spans(cli_argv) - {s["name"] for s in recorder.spans}
    if code == 0 and missing:
        print(f"trace_driver: no span for {', '.join(sorted(missing))} "
              f"(wrapped: {', '.join(sorted(wrapped)) or 'nothing'}); "
              "brandmatch.cli no longer reaches these layers through names it imports",
              file=sys.stderr)
        return EXIT_MISSING_SPAN
    Path(spans_out).write_text(json.dumps({
        "request_id": request_id, "spans": recorder.spans, "counts": recorder.counts,
    }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
