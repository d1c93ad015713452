from __future__ import annotations

import argparse
import ast
import builtins
import errno
import gc
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import brandmatch
from brandmatch import cli, embedding
from brandmatch.cli import main
from brandmatch.content_synthesis import ContentDocument
from brandmatch.errors import (
    EXIT_BAD_TARGET,
    EXIT_EMPTY_CORPUS,
    EXIT_FAILURE,
    EXIT_MALFORMED,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    MalformedFileError,
)
from brandmatch.profile_store import Post, parse_user_list
from helpers import image_post, video_post, write_profile_file, write_user_list

# what XML 1.0 forbids besides NUL, and the line breaks XML allows; a user-list line
# ends only at LF, CR or CRLF, so each stays within its line and is rejected there
XML_FORBIDDEN = [chr(c) for c in (*range(1, 9), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF)]
LINE_BREAKS = ["\x85", "\u2028", "\u2029"]
WITHIN_A_LINE = XML_FORBIDDEN + LINE_BREAKS


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixture")
    assert main(["synth", "--out", str(directory), "--brand", "dogs"]) == EXIT_OK
    return directory


def _pipeline_args(directory, *extra):
    return ["--users", str(directory / "users.txt"), "--metadata", str(directory),
            *extra]


def test_synth_writes_user_list_and_files(fixture_dir):
    lines = [line for line in (fixture_dir / "users.txt").read_text().splitlines()
             if line and not line.startswith("#")]
    assert len(lines) == 26
    assert lines[0] == "dogs_01,dogs"
    assert lines[-1] == "dogs_brand,target"
    payload = json.loads((fixture_dir / "dogs_brand.json").read_text())
    assert isinstance(payload, list) and len(payload) == 20


def test_validate_all_ok(fixture_dir, capsys):
    code = main(["validate", *_pipeline_args(fixture_dir, "--target", "dogs_brand")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "validated 26 profiles: 26 ok, 0 warnings, 0 errors" in out


def test_validate_target_not_in_user_list(fixture_dir, capsys):
    code = main(["validate", *_pipeline_args(fixture_dir, "--target", "nobody")])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_FAILURE
    assert lines[-2:] == ["nobody\tERROR: target not in user list",
                          "validated 26 profiles: 26 ok, 0 warnings, 1 errors"]


def test_validate_missing_file_names_user(tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, ["alice", "ghost_user"])
    code = main(["validate", "--users", str(users), "--metadata", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_FAILURE
    assert "ghost_user" in out and "ERROR" in out


def test_validate_video_only_profile_warns(tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    write_profile_file(tmp_path, "clips", [video_post()])
    users = write_user_list(tmp_path, ["alice", "clips"])
    code = main(["validate", "--users", str(users), "--metadata", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "no classifiable media" in out


def test_validate_video_only_target_fails(tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    write_profile_file(tmp_path, "clips", [video_post()])
    users = write_user_list(tmp_path, ["alice", "clips"])
    code = main(["validate", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "clips"])
    out = capsys.readouterr().out
    assert code == EXIT_FAILURE
    assert "target has no classifiable media" in out


def test_validate_empty_user_list_fails(tmp_path, capsys):
    users = write_user_list(tmp_path, [])
    code = main(["validate", "--users", str(users), "--metadata", str(tmp_path)])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().out.splitlines() == [
        "ERROR: no profile has classifiable media; nothing to match on",
        "validated 0 profiles: 0 ok, 0 warnings, 1 errors"]


def test_match_brand_neighbors_share_category(fixture_dir, tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = main(["match", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--output", str(report))])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "Target profile is:" in out
    assert "Most closely related profiles are:" in out
    lines = report.read_text().splitlines()
    assert lines[0] == "# target: dogs_brand"
    assert len(lines) == 6
    for rank, line in enumerate(lines[1:], start=1):
        fields = line.split("\t")
        assert int(fields[0]) == rank
        assert fields[1].startswith("dogs_")
        assert len(fields[2].split(".")[1]) == 6


def test_match_k_truncation_warns(fixture_dir, capsys):
    code = main(["match", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--k", "50")])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "truncated to 25" in captured.err
    ranked = [l for l in captured.out.splitlines() if l and l[0].isdigit()]
    assert len(ranked) == 25


def test_match_single_profile_errors_without_truncation_warning(tmp_path, capsys):
    write_profile_file(tmp_path, "a", [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, ["a"])
    code = main(["match", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "a"])
    captured = capsys.readouterr()
    assert code == EXIT_EMPTY_CORPUS
    assert captured.out == ""
    assert _single_error_line(captured.err) == \
        "error: need at least two profiles to rank neighbors"


def test_match_unknown_target(fixture_dir, capsys):
    code = main(["match", *_pipeline_args(fixture_dir, "--target", "nobody")])
    assert code == EXIT_BAD_TARGET
    assert "nobody" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["match", "embed"])
def test_unknown_target_exits_before_any_metadata_file_is_read(command, tmp_path, capsys):
    users = write_user_list(tmp_path, ["alice", "bob"])
    code = main([command, "--users", str(users), "--metadata", str(tmp_path / "absent"),
                 "--target", "nobody", *_output_args(command, tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_TARGET
    assert captured.out == ""
    assert _single_error_line(captured.err) == "error: target 'nobody' not in user list"


def test_match_missing_metadata_file(tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, ["alice", "ghost"])
    code = main(["match", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "alice"])
    assert code == EXIT_MISSING_INPUT
    assert "ghost" in capsys.readouterr().err


def test_match_malformed_file(tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    (tmp_path / "bob.json").write_text("{not json", encoding="utf-8")
    users = write_user_list(tmp_path, ["alice", "bob"])
    code = main(["match", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "alice"])
    assert code == EXIT_MALFORMED


def test_match_empty_corpus(tmp_path, capsys):
    for name in ("a", "b"):
        write_profile_file(tmp_path, name, [video_post()])
    users = write_user_list(tmp_path, ["a", "b"])
    code = main(["match", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "a"])
    assert code == EXIT_EMPTY_CORPUS


def test_match_report_deterministic(fixture_dir, tmp_path):
    paths = [tmp_path / "r1.txt", tmp_path / "r2.txt"]
    for path in paths:
        assert main(["match", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                              "--output", str(path))]) == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_match_with_tfidf_weighting(fixture_dir, tmp_path):
    report = tmp_path / "tfidf.txt"
    code = main(["match", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--weighting", "tfidf",
                                          "--output", str(report))])
    assert code == EXIT_OK
    neighbors = [line.split("\t")[1] for line in report.read_text().splitlines()[1:]]
    assert all(name.startswith("dogs_") for name in neighbors)


def test_export_matrix(fixture_dir, tmp_path):
    out = tmp_path / "matrix.tsv"
    code = main(["match", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--export-matrix", str(out))])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("username\t")
    assert len(lines) == 27


def test_embed_writes_tsv_and_svg(fixture_dir, tmp_path, capsys):
    tsv = tmp_path / "embedding.tsv"
    svg = tmp_path / "plot.svg"
    code = main(["embed", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--embedding", str(tsv),
                                          "--plot", str(svg))])
    assert code == EXIT_OK
    lines = tsv.read_text().splitlines()
    assert lines[0] == "username\tcategory\tx\ty"
    assert len(lines) == 27
    text = svg.read_text()
    for name in ("dogs", "cats", "mountains", "cars", "pizza", "target"):
        assert f">{name}</text>" in text
    import xml.etree.ElementTree as ET
    ET.fromstring(text)


def test_embed_colors_follow_first_appearance_after_the_target(tmp_path):
    for name, label in (("brand", "pizza"), ("u1", "dog"), ("u2", "cat"), ("u3", "pizza"),
                        ("u4", "dog"), ("u5", "car")):
        write_profile_file(tmp_path, name, [image_post([label, "plate"], [0.9, 0.1])])
    users = write_user_list(tmp_path, [("brand", "target"), ("u1", "dogs"), ("u2", None),
                                       ("u3", "target"), ("u4", "dogs"), ("u5", "cars")])
    code = main(["embed", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "brand", "--embedding", str(tmp_path / "e.tsv"),
                 "--plot", str(tmp_path / "p.svg")])
    assert code == EXIT_OK
    svg = (tmp_path / "p.svg").read_text()
    # u3's category is "target" too: it takes the star's gold and shares its legend row
    assert re.findall(r'<circle class="point" [^>]* fill="(#\w+)"/>', svg) == \
        ["#1f77b4", "#999999", "#ffd700", "#1f77b4", "#ff7f0e"]
    assert re.findall(r'fill="(#\w+)"/>\n<text class="legend" [^>]*>([^<]*)</text>', svg) == \
        [("#1f77b4", "dogs"), ("#ff7f0e", "cars"), ("#ffd700", "target")]


def test_embed_two_profiles(tmp_path):
    write_profile_file(tmp_path, "a", [image_post(["dog"], [0.9])])
    write_profile_file(tmp_path, "b", [image_post(["cat"], [0.8])])
    users = write_user_list(tmp_path, ["a", "b"])
    code = main(["embed", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "a", "--embedding", str(tmp_path / "e.tsv"),
                 "--plot", str(tmp_path / "p.svg")])
    assert code == EXIT_OK
    assert (tmp_path / "p.svg").read_text().count('class="point"') == 1


def test_embed_single_profile_exits_too_few_profiles(tmp_path, capsys):
    write_profile_file(tmp_path, "a", [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, ["a"])
    code = main(["embed", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "a", "--embedding", str(tmp_path / "e.tsv"),
                 "--plot", str(tmp_path / "p.svg")])
    assert code == EXIT_EMPTY_CORPUS
    assert "error:" in capsys.readouterr().err


def test_embed_smacof_cap_warns_without_changing_exit(fixture_dir, tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(embedding, "DEFAULT_MAX_ITER", 1)
    code = main(["embed", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--embedding", str(tmp_path / "e.tsv"),
                                          "--plot", str(tmp_path / "p.svg"))])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "warning: SMACOF stopped after 1 iterations without converging: " \
           "relative stress decrease " in captured.err
    assert "plot written to" in captured.out


def test_embed_failed_plot_leaves_no_embedding(fixture_dir, tmp_path, capsys):
    embedding_path = tmp_path / "part.tsv"
    code = main(["embed", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--embedding", str(embedding_path),
                                          "--plot", str(tmp_path / "nodir" / "p.svg"))])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert captured.out == ""
    assert _single_error_line(captured.err).endswith(f"{tmp_path / 'nodir' / 'p.svg'}'")
    assert not embedding_path.exists()
    assert list(tmp_path.iterdir()) == []


def test_match_failed_output_leaves_no_exported_matrix(fixture_dir, tmp_path, capsys):
    code = main(["match", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--export-matrix", str(tmp_path / "m.tsv"),
                                          "--output", str(tmp_path / "nodir" / "r.txt"))])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert captured.out == ""
    assert _single_error_line(captured.err).endswith(f"{tmp_path / 'nodir' / 'r.txt'}'")
    assert list(tmp_path.iterdir()) == []


def test_embed_failed_plot_leaves_no_exported_matrix(fixture_dir, tmp_path, capsys):
    code = main(["embed", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--export-matrix", str(tmp_path / "m.tsv"),
                                          "--embedding", str(tmp_path / "part.tsv"),
                                          "--plot", str(tmp_path / "nodir" / "p.svg"))])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert captured.out == ""
    assert _single_error_line(captured.err).endswith(f"{tmp_path / 'nodir' / 'p.svg'}'")
    assert list(tmp_path.iterdir()) == []


def test_write_failing_partway_leaves_no_partial_file(fixture_dir, tmp_path, monkeypatch,
                                                      capsys):
    plot = tmp_path / "p.svg"

    def full_disk(path, *args, **kwargs):
        file = builtins.open(path, *args, **kwargs)
        if path == plot:
            write = file.write

            def store_half(text):
                write(text[:len(text) // 2])
                file.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

            file.write = store_half
        return file

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    code = main(["embed", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--export-matrix", str(tmp_path / "m.tsv"),
                                          "--embedding", str(tmp_path / "e.tsv"),
                                          "--plot", str(plot))])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert captured.out == ""
    assert _single_error_line(captured.err).endswith(f"No space left on device: '{plot}'")
    assert list(tmp_path.iterdir()) == []


def test_import_leaves_out_network_modules():
    # xml.sax.saxutils pulled in urllib.request, http.client, email and ssl
    probe = ("import sys, brandmatch.cli; print(' '.join(name for name in "
             "('xml.sax', 'urllib.request', 'http.client', 'email.parser') "
             "if name in sys.modules))")
    source = str(Path(brandmatch.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": source}, check=True)
    assert result.stdout.strip() == ""


_RUN_MAIN = ("import sys\nfrom brandmatch.cli import main\ntry:\n    code = main(sys.argv[1:])\n"
             "except SystemExit as stop:\n    code = stop.code\n"
             "print(code, 'numpy' in sys.modules)")


def _fresh_interpreter(program, *argv):
    """Last line a new interpreter prints running ``program`` with ``argv``."""
    source = str(Path(brandmatch.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", program, *map(str, argv)],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": source}, check=True)
    return result.stdout.splitlines()[-1]


def test_only_embed_loads_numpy(fixture_dir, tmp_path):
    # pytest's own process already holds numpy, so each probe is a new interpreter
    for module in ("brandmatch", "brandmatch.cli"):
        probe = f"import sys, {module}; print('numpy' in sys.modules)"
        assert _fresh_interpreter(probe) == "False", module
    pipeline = _pipeline_args(fixture_dir, "--target", "dogs_brand")
    assert _fresh_interpreter(_RUN_MAIN, "--version") == "0 False"
    assert _fresh_interpreter(_RUN_MAIN, "validate", *pipeline) == "0 False"
    assert _fresh_interpreter(_RUN_MAIN, "synth", "--out", tmp_path / "s",
                              "--brand", "dogs") == "0 False"
    assert _fresh_interpreter(_RUN_MAIN, "match", *pipeline) == "0 False"
    assert _fresh_interpreter(_RUN_MAIN, "match", *pipeline, "--weighting", "tfidf",
                              "--export-matrix", tmp_path / "m.tsv") == "0 False"
    # the probe does see numpy where a command needs it
    assert _fresh_interpreter(_RUN_MAIN, "embed", *pipeline,
                              *_output_args("embed", tmp_path)) == "0 True"


def _numpy_imports(node, where):
    """(where, line) of each numpy import under ``node``, leaving out ``if TYPE_CHECKING:``."""
    if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
            and node.test.id == "TYPE_CHECKING":
        return
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        where = f"{where}.{node.name}"
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
    if any(name == "numpy" or name.startswith("numpy.") for name in names):
        yield where, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _numpy_imports(child, where)


def test_numpy_is_imported_only_by_embedding_and_matrix_values():
    # the static side of the probe above: array code lives in embedding, and
    # DocTermMatrix.values is the one way from a matrix to an array
    package = Path(brandmatch.__file__).parent
    found = [(where, line) for path in sorted(package.glob("*.py"))
             for where, line in _numpy_imports(ast.parse(path.read_text(encoding="utf-8")),
                                               path.stem)]
    assert [where for where, _ in found if not where.startswith("embedding")] == \
        ["vectorizer.DocTermMatrix.values"], found


@pytest.mark.parametrize("command", ["match", "embed"])
def test_records_are_freed_before_the_matrix_stage(command, fixture_dir, tmp_path, monkeypatch):
    # no Post may live into the matrix stage, and no document into the m x m stage;
    # matched by id, so records that other tests keep alive do not count. Documents are
    # the ones count_vectorize receives: what synthesize_document returns is re-wrapped
    # and freed at once, so its ids are reused
    load, vectorize, distances = cli.load_profile_set, cli.count_vectorize, cli.pairwise_distances
    post_ids: set[int] = set()
    document_ids: set[int] = set()
    alive: dict[str, int] = {}

    def live(kind, ids):
        return sum(1 for o in gc.get_objects() if isinstance(o, kind) and id(o) in ids)

    def recording_load(*args, **kwargs):
        profile_set = load(*args, **kwargs)
        post_ids.update(id(post) for profile in profile_set.profiles for post in profile.posts)
        return profile_set

    def checked_vectorize(documents, *args, **kwargs):
        alive["posts"] = live(Post, post_ids)
        document_ids.update(id(document) for document in documents)
        return vectorize(documents, *args, **kwargs)

    def checked_distances(*args, **kwargs):
        alive["documents"] = live(ContentDocument, document_ids)
        return distances(*args, **kwargs)

    for name, spy in (("load_profile_set", recording_load),
                      ("count_vectorize", checked_vectorize),
                      ("pairwise_distances", checked_distances)):
        monkeypatch.setattr(cli, name, spy)
    assert main([command, *_pipeline_args(fixture_dir, "--target", "dogs_brand"),
                 *_output_args(command, tmp_path)]) == EXIT_OK
    assert len(post_ids) == 26 * 20 and len(document_ids) == 26
    assert alive == ({"posts": 0} if command == "match" else {"posts": 0, "documents": 0})


@pytest.mark.parametrize("command", ["match", "embed"])
def test_documents_share_one_string_per_token(command, fixture_dir, tmp_path, monkeypatch):
    vectorize, received = cli.count_vectorize, []

    def recording_vectorize(documents, *args, **kwargs):
        received.extend(documents)
        return vectorize(documents, *args, **kwargs)

    monkeypatch.setattr(cli, "count_vectorize", recording_vectorize)
    assert main([command, *_pipeline_args(fixture_dir, "--target", "dogs_brand"),
                 *_output_args(command, tmp_path)]) == EXIT_OK
    tokens = [token for document in received for token in document.tokens]
    assert len(received) == 26 and len(tokens) > len(set(tokens))
    assert len({id(token) for token in tokens}) == len(set(tokens))


def test_embed_deterministic(fixture_dir, tmp_path):
    outputs = []
    for i in (1, 2):
        tsv = tmp_path / f"e{i}.tsv"
        svg = tmp_path / f"p{i}.svg"
        assert main(["embed", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                              "--embedding", str(tsv),
                                              "--plot", str(svg))]) == EXIT_OK
        outputs.append((tsv.read_bytes(), svg.read_bytes()))
    assert outputs[0] == outputs[1]


def test_synth_seed_changes_fixture(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["synth", "--out", str(a), "--seed", "1"]) == EXIT_OK
    assert main(["synth", "--out", str(b), "--seed", "1"]) == EXIT_OK
    assert main(["synth", "--out", str(c), "--seed", "2"]) == EXIT_OK
    sample = "dogs_01.json"
    assert (a / sample).read_bytes() == (b / sample).read_bytes()
    assert (a / sample).read_bytes() != (c / sample).read_bytes()


def test_synth_unknown_brand_category(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "x"), "--brand", "sharks"])
    assert code == EXIT_FAILURE
    assert "sharks" in capsys.readouterr().err


def test_bad_numeric_flags_are_usage_errors(fixture_dir, capsys):
    for extra in (("--k", "0"), ("--top-k-tags", "0"), ("--image-cap", "0")):
        code = main(["match", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                              *extra)])
        assert code == 2
        capsys.readouterr()


def test_commands_do_not_mutate_inputs(fixture_dir, tmp_path):
    inputs = {p.name: p.read_bytes() for p in fixture_dir.iterdir()}
    assert main(["match", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--output", str(tmp_path / "r.txt"))]) == EXIT_OK
    assert main(["embed", *_pipeline_args(fixture_dir, "--target", "dogs_brand",
                                          "--embedding", str(tmp_path / "e.tsv"),
                                          "--plot", str(tmp_path / "p.svg"))]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in fixture_dir.iterdir()} == inputs


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def _output_args(command, directory):
    if command != "embed":
        return []
    return ["--embedding", str(directory / "e.tsv"), "--plot", str(directory / "p.svg")]


def _single_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def test_missing_user_list_same_message_for_every_command(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    for command in ("validate", "match", "embed"):
        code = main([command, "--users", str(missing), "--metadata", str(tmp_path),
                     "--target", "a", *_output_args(command, tmp_path)])
        assert code == EXIT_MISSING_INPUT
        assert (_single_error_line(capsys.readouterr().err)
                == f"error: user list not found: {missing}")


def test_user_list_not_utf8_exits_malformed(tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    users = tmp_path / "users.txt"
    users.write_bytes(b"\xff\xfe bad\n")
    for command in ("validate", "match"):
        code = main([command, "--users", str(users), "--metadata", str(tmp_path),
                     "--target", "alice"])
        assert code == EXIT_MALFORMED
        assert "not UTF-8" in _single_error_line(capsys.readouterr().err)


def test_caption_node_not_an_object_exits_malformed(tmp_path, capsys):
    post = image_post(["dog"], [0.9])
    post["edge_media_to_caption"] = {"edges": [{"node": "just text"}]}
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    write_profile_file(tmp_path, "bob", [image_post(["cat"], [0.9]), post])
    users = write_user_list(tmp_path, ["alice", "bob"])
    code = main(["match", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "alice"])
    assert code == EXIT_MALFORMED
    assert (_single_error_line(capsys.readouterr().err)
            == "error: bob: post 1: caption node is not an object")


def test_deeply_nested_metadata_exits_malformed(tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    (tmp_path / "deep.json").write_text("[" * 200_000, encoding="utf-8")
    users = write_user_list(tmp_path, ["alice", "deep"])
    code = main(["match", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "alice"])
    assert code == EXIT_MALFORMED
    assert _single_error_line(capsys.readouterr().err).startswith("error: deep: invalid JSON")


@pytest.mark.parametrize("command", ["match", "embed"])
def test_target_without_classifiable_media_exits_bad_target(command, tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    write_profile_file(tmp_path, "bob", [image_post(["cat"], [0.8])])
    write_profile_file(tmp_path, "clips", [video_post()])
    users = write_user_list(tmp_path, ["alice", "bob", "clips"])
    code = main([command, "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "clips", *_output_args(command, tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_TARGET
    assert (_single_error_line(captured.err)
            == "error: target 'clips' has no classifiable media")
    assert captured.out == ""
    assert not (tmp_path / "e.tsv").exists() and not (tmp_path / "p.svg").exists()


def test_integer_literal_past_the_conversion_limit_exits_malformed(tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    (tmp_path / "huge.json").write_text(
        '[{"edge_media_preview_like": {"count": ' + "9" * 5000 + "}}]", encoding="utf-8")
    users = write_user_list(tmp_path, ["alice", "huge"])
    code = main(["match", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "alice"])
    assert code == EXIT_MALFORMED
    assert _single_error_line(capsys.readouterr().err).startswith(
        f"error: huge: invalid JSON in {tmp_path / 'huge.json'}: ")


def test_directory_given_as_user_list_exits_missing_input(tmp_path, capsys):
    for command in ("validate", "match", "embed"):
        code = main([command, "--users", str(tmp_path), "--metadata", str(tmp_path),
                     "--target", "a", *_output_args(command, tmp_path)])
        assert code == EXIT_MISSING_INPUT
        assert (_single_error_line(capsys.readouterr().err)
                == f"error: user list {tmp_path} is a directory")


def test_directory_given_as_metadata_file(tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    write_profile_file(tmp_path, "bob", [image_post(["cat"], [0.8])])
    (tmp_path / "carol.json").mkdir()
    users = write_user_list(tmp_path, ["alice", "bob", "carol"])
    message = f"carol: {tmp_path / 'carol.json'} is a directory, not a metadata file"
    for command in ("match", "embed"):
        code = main([command, "--users", str(users), "--metadata", str(tmp_path),
                     "--target", "alice", *_output_args(command, tmp_path)])
        assert code == EXIT_MISSING_INPUT
        assert _single_error_line(capsys.readouterr().err) == f"error: {message}"
    code = main(["validate", "--users", str(users), "--metadata", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_FAILURE
    assert out[2] == f"carol\tERROR: {message}"
    assert out[-1] == "validated 3 profiles: 2 ok, 0 warnings, 1 errors"


def test_file_given_as_metadata_directory_exits_missing_input(tmp_path, capsys):
    users = write_user_list(tmp_path, ["alice"])
    code = main(["match", "--users", str(users), "--metadata", str(users),
                 "--target", "alice"])
    assert code == EXIT_MISSING_INPUT
    assert (_single_error_line(capsys.readouterr().err)
            == f"error: alice: no metadata file at {users / 'alice.json'}")


@pytest.mark.parametrize("username", ["../outside/evil", "sub/evil", "back\\slash", ".", "..",
                                      "", "tab\there", "nul\0here",
                                      *(f"bad{c}name" for c in WITHIN_A_LINE)])
def test_user_list_rejects_names_outside_the_metadata_directory(username, tmp_path, capsys):
    metadata = tmp_path / "metadata"
    for directory in (metadata / "sub", tmp_path / "outside"):
        directory.mkdir(parents=True)
        write_profile_file(directory, "evil", [image_post(["dog"], [0.9])])
    write_profile_file(metadata, "alice", [image_post(["dog"], [0.9])])
    users = tmp_path / "users.txt"
    users.write_text(f"# list\nalice,dogs\n{username},dogs\n", encoding="utf-8")
    for command in ("validate", "match"):
        code = main([command, "--users", str(users), "--metadata", str(metadata),
                     "--target", "alice"])
        captured = capsys.readouterr()
        assert code == EXIT_MALFORMED
        assert captured.out == ""
        assert _single_error_line(captured.err).startswith(
            f"error: user list {users} line 3: invalid username {username!r}")


# a lone surrogate: what Python makes of a byte of a command line that is not UTF-8
@pytest.mark.parametrize("brand_name", ["../escaped", "a/b", "..", "tab\there",
                                        *(f"bad{c}name" for c in WITHIN_A_LINE),
                                        "ab\udcff", "bad\ud800name", "bad\udfffname"])
def test_synth_brand_name_must_be_a_username(brand_name, tmp_path, capsys):
    out = tmp_path / "fixture"
    code = main(["synth", "--out", str(out), "--brand", "dogs", "--brand-name", brand_name])
    assert code == 2
    assert _single_error_line(capsys.readouterr().err).startswith(
        f"error: invalid username {brand_name!r}")
    assert list(tmp_path.iterdir()) == []


def test_synth_brand_name_must_not_name_an_influencer(tmp_path, capsys):
    out = tmp_path / "fixture"
    code = main(["synth", "--out", str(out), "--brand", "pizza", "--brand-name", "pizza_01"])
    assert code == 2
    assert _single_error_line(capsys.readouterr().err) == \
        "error: brand name 'pizza_01' names a generated influencer"
    assert list(tmp_path.iterdir()) == []


def _inputs_that_fail_to_load(fixture_dir, tmp_path):
    """A copy of the fixture whose metadata, once read, exits 3: a listed file is gone."""
    copy = tmp_path / "in"
    shutil.copytree(fixture_dir, copy)
    (copy / "cats_05.json").unlink()
    return copy, {path.name: path.read_bytes() for path in copy.iterdir()}


def _rejected_before_loading(argv, inputs, snapshot, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert {path.name: path.read_bytes() for path in inputs.iterdir()} == snapshot
    return _single_error_line(captured.err)


@pytest.mark.parametrize("command, first, second", [
    ("embed", "--embedding", "--plot"),
    ("embed", "--export-matrix", "--embedding"),
    ("match", "--export-matrix", "--output"),
])
def test_two_outputs_naming_one_file_exit_usage(command, first, second, fixture_dir, tmp_path,
                                                capsys):
    inputs, snapshot = _inputs_that_fail_to_load(fixture_dir, tmp_path)
    (tmp_path / "sub").mkdir()
    one, other = tmp_path / "out.txt", tmp_path / "sub" / ".." / "out.txt"
    argv = [command, *_pipeline_args(inputs, "--target", "dogs_brand"), *_output_args(
        command, tmp_path), first, str(one), second, str(other)]
    assert _rejected_before_loading(argv, inputs, snapshot, capsys) == \
        f"error: output path {other} names the same file as {one}"
    assert not one.exists()


@pytest.mark.parametrize("command, flag", [("match", "--output"), ("embed", "--plot")])
@pytest.mark.parametrize("through_a_link", [False, True], ids=["path", "symlink"])
def test_output_naming_the_user_list_exits_usage(command, flag, through_a_link, fixture_dir,
                                                 tmp_path, capsys):
    inputs, snapshot = _inputs_that_fail_to_load(fixture_dir, tmp_path)
    output = inputs / "users.txt"
    if through_a_link:
        output = tmp_path / "link.txt"
        output.symlink_to(inputs / "users.txt")
    argv = [command, *_pipeline_args(inputs, "--target", "dogs_brand"),
            *_output_args(command, tmp_path), flag, str(output)]
    assert _rejected_before_loading(argv, inputs, snapshot, capsys) == \
        f"error: output path {output} names the same file as {inputs / 'users.txt'}"


@pytest.mark.parametrize("command, flag", [("match", "--export-matrix"),
                                           ("embed", "--embedding")])
def test_output_naming_a_metadata_file_exits_usage(command, flag, fixture_dir, tmp_path,
                                                   capsys):
    inputs, snapshot = _inputs_that_fail_to_load(fixture_dir, tmp_path)
    output = inputs / "dogs_03.json"
    argv = [command, *_pipeline_args(inputs, "--target", "dogs_brand"),
            *_output_args(command, tmp_path), flag, str(output)]
    assert _rejected_before_loading(argv, inputs, snapshot, capsys) == \
        f"error: output path {output} names the same file as {output}"


@pytest.mark.parametrize("command, flag, path", [
    ("match", "--output", "nodir/r.txt"),
    ("match", "--export-matrix", "afile/m.tsv"),
    ("embed", "--embedding", "nodir/e.tsv"),
    ("embed", "--embedding", "adir"),
    ("synth", "--out", "afile"),
])
def test_unwritable_output_exits_failure(command, flag, path, fixture_dir, tmp_path, capsys):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    argv = [command, flag, str(tmp_path / path)]
    if command != "synth":
        argv += _pipeline_args(fixture_dir, "--target", "dogs_brand")
    if command == "embed":
        argv += ["--plot", str(tmp_path / "p.svg")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert captured.out == ""
    assert _single_error_line(captured.err).endswith(f"{tmp_path / path}'")


def test_validate_target_without_tokens_agrees_with_match(tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    write_profile_file(tmp_path, "brand", [image_post(["x", "y"], [0.9, 0.5])])
    users = write_user_list(tmp_path, ["alice", "brand"])
    args = ["--users", str(users), "--metadata", str(tmp_path), "--target", "brand"]
    assert main(["match", *args]) == EXIT_BAD_TARGET
    capsys.readouterr()
    assert main(["validate", *args]) == EXIT_FAILURE
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["brand\tERROR: target has no classifiable media",
                        "validated 2 profiles: 2 ok, 0 warnings, 1 errors"]


@pytest.mark.parametrize("character", ["\t", "\0", *WITHIN_A_LINE])
def test_user_list_rejects_tab_or_nul_in_category(character, tmp_path, capsys):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    write_profile_file(tmp_path, "bob", [image_post(["cat"], [0.9])])
    users = write_user_list(tmp_path, [("alice", "dogs"), ("bob", f"ca{character}ts")])
    code = main(["embed", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "alice", *_output_args("embed", tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_MALFORMED
    assert captured.out == ""
    assert (_single_error_line(captured.err)
            == f"error: user list {users} line 2: invalid category {f'ca{character}ts'!r}: "
               + ("it must not contain tab or NUL" if character in "\t\0"
                  else "it must not contain a line break" if character in LINE_BREAKS
                  else "it must not contain a character XML 1.0 forbids"))
    assert not (tmp_path / "e.tsv").exists()


@pytest.mark.parametrize("character", [c for c in XML_FORBIDDEN if len(f"a{c}b".splitlines()) > 1])
def test_xml_forbidden_line_breaks_end_a_user_list_line(character, tmp_path):
    # str.splitlines would end the line here and load the profiles "bad" and "name"
    users = tmp_path / "users.txt"
    users.write_text(f"bad{character}name,ca{character}ts\n", encoding="utf-8")
    with pytest.raises(MalformedFileError, match=(
            f"^user list {re.escape(str(users))} line 1: invalid username "
            f"{re.escape(repr(f'bad{character}name'))}: "
            "it must not contain a character XML 1.0 forbids$")):
        parse_user_list(users)


@pytest.mark.parametrize("character", LINE_BREAKS)
def test_user_list_lines_end_only_at_lf_cr_or_crlf(character, tmp_path):
    users = tmp_path / "users.txt"
    users.write_bytes(f"alice,dogs\rbob\r\ncarol,ca{character}ts\nbad{character}name\n"
                      .encode("utf-8"))
    with pytest.raises(MalformedFileError, match=(
            f"^user list {re.escape(str(users))} line 3: invalid category "
            f"{re.escape(repr(f'ca{character}ts'))}: it must not contain a line break$")):
        parse_user_list(users)
    users.write_bytes(f"alice,dogs\rbob\r\nbad{character}name\n".encode("utf-8"))
    with pytest.raises(MalformedFileError, match=(
            f"^user list {re.escape(str(users))} line 3: invalid username "
            f"{re.escape(repr(f'bad{character}name'))}: it must not contain a line break$")):
        parse_user_list(users)
    users.write_bytes(b"alice,dogs\rbob\r\ncarol,cats\n")
    assert parse_user_list(users) == [("alice", "dogs"), ("bob", None), ("carol", "cats")]


@pytest.mark.parametrize("character", LINE_BREAKS)
def test_user_list_strips_only_spaces_and_tabs(character, tmp_path):
    users = tmp_path / "users.txt"
    users.write_text(" \tdogs_01 \t, \tdogs\t \n", encoding="utf-8")
    assert parse_user_list(users) == [("dogs_01", "dogs")]
    # other whitespace around a name is part of it, so the line-break rule sees it
    users.write_text(f"dogs_01{character},dogs{character}\n", encoding="utf-8")
    with pytest.raises(MalformedFileError, match=(
            f"^user list {re.escape(str(users))} line 1: invalid username "
            f"{re.escape(repr(f'dogs_01{character}'))}: it must not contain a line break$")):
        parse_user_list(users)


def test_user_list_ignores_a_leading_byte_order_mark(tmp_path, capsys):
    write_profile_file(tmp_path, "dogs_01", [image_post(["dog"], [0.9])])
    write_profile_file(tmp_path, "brand", [image_post(["dog"], [0.9])])
    users = tmp_path / "users.txt"
    users.write_text("\ufeffdogs_01,dogs\nbrand,target\n", encoding="utf-8")
    assert parse_user_list(users) == [("dogs_01", "dogs"), ("brand", "target")]
    assert main(["match", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "brand"]) == EXIT_OK
    assert "1\tdogs_01\t0.000000\n" in capsys.readouterr().out


def _formats_exit_codes() -> dict[str, list[int]]:
    """Each type named in the FORMATS.md exit-code table, with the codes of its rows."""
    text = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text(encoding="utf-8")
    section = text.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    codes: dict[str, list[int]] = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].isdigit():
            for name in re.findall(r"`(\w+)`", cells[2]):
                codes.setdefault(name, []).append(int(cells[0]))
    return codes


FORMATS_EXIT_CODES = _formats_exit_codes()


@pytest.mark.parametrize("name", [
    name for name in brandmatch.__all__
    if isinstance(getattr(brandmatch, name), type)
    and issubclass(getattr(brandmatch, name), brandmatch.BrandMatchError)])
def test_every_error_type_exits_with_its_documented_code(name, monkeypatch, capsys):
    def fail(args):
        raise getattr(brandmatch, name)("boom")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    code = main(["validate", "--users", "u.txt", "--metadata", "m"])
    assert FORMATS_EXIT_CODES[name] == [getattr(brandmatch, name).exit_code]
    assert code == getattr(brandmatch, name).exit_code
    assert _single_error_line(capsys.readouterr().err) == "error: boom"


def test_exit_table_names_only_public_types():
    for name in FORMATS_EXIT_CODES:
        assert name in brandmatch.__all__ or isinstance(getattr(builtins, name, None), type), name
    # one error type for each input-error code
    for code in (EXIT_MISSING_INPUT, EXIT_MALFORMED, EXIT_BAD_TARGET, EXIT_EMPTY_CORPUS):
        assert sum(code in codes for codes in FORMATS_EXIT_CODES.values()) == 1, code


def test_every_public_name_resolves_once():
    assert sorted(brandmatch.__all__) == sorted([
        "BrandMatchError", "ContentDocument", "DocTermMatrix", "Embedding2D",
        "EmptyCorpusError", "FixtureSpec", "MalformedFileError", "MatchResult",
        "MissingProfileFileError", "Post", "Profile", "ProfileSet", "TagPrediction",
        "UnknownTargetError", "Xorshift64Star", "apply_image_cap", "build_vocabulary",
        "classical_mds", "count_vectorize", "emit_scatter_svg", "export_matrix_tsv",
        "generate_brand_profile", "generate_profile_set", "knn_match",
        "load_profile", "load_profile_set", "pairwise_distances", "parse_user_list",
        "save_profile", "smacof_refine", "stress", "synthesize_document", "tfidf_transform",
        "tokenize"])
    assert len(set(brandmatch.__all__)) == len(brandmatch.__all__) == 34
    for name in brandmatch.__all__:
        assert hasattr(brandmatch, name), name


def test_each_command_takes_only_its_flags(fixture_dir, tmp_path, capsys):
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    inputs = ["-h", "--help", "--users", "--metadata", "--target", "--top-k-tags",
              "--image-cap"]
    matrix = [*inputs, "--weighting", "--export-matrix"]
    assert {name: [option for action in parser._actions for option in action.option_strings]
            for name, parser in commands.items()} == {
        "validate": inputs,
        "match": [*matrix, "--k", "--output"],
        "embed": [*matrix, "--embedding", "--plot"],
        "synth": ["-h", "--help", "--out", "--seed", "--users-per-category",
                  "--posts-per-user", "--noise", "--brand", "--brand-name"]}
    # validate builds no matrix, so it rejects the matrix's flags instead of ignoring them
    for flag, value in (("--weighting", "tfidf"), ("--export-matrix", str(tmp_path / "m.tsv"))):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", *_pipeline_args(fixture_dir, flag, value)])
        assert excinfo.value.code == EXIT_USAGE
        assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
    assert not (tmp_path / "m.tsv").exists()


@pytest.mark.parametrize("flag, message", [
    ("--top-k-tags", "top_k must be a positive integer"),
    ("--image-cap", "image_cap must be a positive integer"),
    ("--k", "k must be a positive integer")])
def test_validate_rejects_the_flag_values_match_rejects(flag, message, fixture_dir, tmp_path,
                                                        capsys):
    code = main(["match", *_pipeline_args(fixture_dir, "--target", "dogs_brand", flag, "0")])
    assert code == EXIT_USAGE
    assert _single_error_line(capsys.readouterr().err) == f"error: {message}"
    empty = write_user_list(tmp_path, [])
    # rejected before any file is read: an empty or missing user list makes no difference
    for command in ("match",) if flag == "--k" else ("validate", "match", "embed"):
        target = [] if command == "validate" else ["--target", "x"]
        for users in (fixture_dir / "users.txt", empty, tmp_path / "missing.txt"):
            code = main([command, "--users", str(users), "--metadata", str(fixture_dir),
                         *target, flag, "0", *_output_args(command, tmp_path)])
            captured = capsys.readouterr()
            assert code == EXIT_USAGE, (command, users)
            assert captured.out == ""
            assert _single_error_line(captured.err) == f"error: {message}"
