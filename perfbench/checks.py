"""Output checks for each request the benchmark sends, against the expected outputs.

Each check returns a list of problems; an empty list means the request's
outputs are correct. The expected values come from ``inputs.py``.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np

from inputs import raw_stress

# A classical-MDS or SMACOF rewrite may change coordinates by rounding, not more.
EMBEDDING_REL_TOL = 1e-6
STRESS_REL_SLACK = 1e-9

_VALIDATE_LINE = re.compile(r"^(\S+)\tposts=(\d+)\timages=(\d+)\t(.*)$")


def check_match(stdout: str, outputs: dict[str, Path], expected: dict,
                target: str) -> list[str]:
    expected_report = expected["reports"][target]
    problems = []
    report = outputs["report"].read_text(encoding="utf-8")
    if report != expected_report:
        problems.append("match report differs from the brute-force k-NN reference")
    ranks = [line for line in stdout.splitlines() if line[:1].isdigit()]
    if ranks != expected_report.splitlines()[1:]:
        problems.append("match stdout ranking differs from the brute-force k-NN reference")
    if "matrix" in outputs:
        problems += _check_matrix(outputs["matrix"].read_text(encoding="utf-8"),
                                  expected["users"], expected["vocabulary"])
    return problems


def _check_matrix(text: str, users: list[str], vocabulary: list[str]) -> list[str]:
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) - 1 != len(users) + 1:
        return [f"matrix export has {len(lines) - 1} lines, expected {len(users) + 1}"]
    if lines[0].split("\t") != ["username"] + vocabulary:
        return ["matrix export header differs from the reference vocabulary"]
    for user, line in zip(users, lines[1:-1]):
        cells = line.split("\t")
        if cells[0] != user or len(cells) != len(vocabulary) + 1:
            return [f"matrix export row for {user} has the wrong label or width"]
    return []


def check_embed(stdout: str, outputs: dict[str, Path], expected: dict) -> list[str]:
    users, categories = expected["users"], expected["categories"]
    lines = outputs["embedding"].read_text(encoding="utf-8").split("\n")
    if lines[0] != "username\tcategory\tx\ty" or lines[-1] != "" or len(lines) != len(users) + 2:
        return ["embedding TSV has the wrong header or row count"]
    coordinates = []
    for user, category, line in zip(users, categories, lines[1:-1]):
        cells = line.split("\t")
        if len(cells) != 4 or cells[0] != user or cells[1] != (category or ""):
            return [f"embedding TSV row for {user} is out of user-list order or malformed"]
        point = (float(cells[2]), float(cells[3]))
        if not all(math.isfinite(v) for v in point):
            return [f"embedding TSV row for {user} is not finite"]
        coordinates.append(point)
    got = np.array(coordinates)
    reference = np.array(expected["coordinates"])
    scale = float(np.sqrt((reference ** 2).sum(axis=1).mean()))
    problems = []
    deviation = float(np.abs(got - reference).max())
    if deviation > EMBEDDING_REL_TOL * scale:
        problems.append(f"embedding deviates from the reference by {deviation:.3g} "
                        f"(tolerance {EMBEDDING_REL_TOL * scale:.3g})")
    stress = raw_stress(np.array(expected["distances"]), got)
    if stress > expected["stress"] * (1.0 + STRESS_REL_SLACK):
        problems.append(f"embedding stress {stress!r} is worse than the reference "
                        f"{expected['stress']!r}")
    problems += _check_svg(outputs["plot"], len(users))
    return problems


def _check_svg(path: Path, m: int) -> list[str]:
    try:
        root = ElementTree.parse(path).getroot()
    except ElementTree.ParseError as error:
        return [f"plot is not well-formed XML: {error}"]
    classes = [(element.tag.rsplit("}", 1)[-1], element.get("class"))
               for element in root.iter()]
    points = classes.count(("circle", "point"))
    targets = sum(1 for _, cls in classes if cls == "target")
    if points != m - 1 or targets != 1:
        return [f"plot holds {points} point circles and {targets} targets, "
                f"expected {m - 1} and 1"]
    return []


def check_validate(stdout: str, expected_counts: dict[str, list[int]]) -> list[str]:
    seen = {}
    for line in stdout.splitlines():
        found = _VALIDATE_LINE.match(line)
        if found:
            user, posts, images, status = found.groups()
            seen[user] = [int(posts), int(images)]
            if status != "ok":
                return [f"validate reports {user} as {status!r}"]
    if list(seen) != list(expected_counts):
        return ["validate lists other profiles, or another order, than the user list"]
    wrong = [user for user, counts in expected_counts.items() if seen[user] != counts]
    if wrong:
        return [f"validate post or image counts differ from the generator for "
                f"{len(wrong)} profiles, first {wrong[0]}"]
    summary = f"validated {len(seen)} profiles: {len(seen)} ok, 0 warnings, 0 errors"
    if stdout.splitlines()[-1:] != [summary]:
        return ["validate summary line is missing or reports problems"]
    return []
