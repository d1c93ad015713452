"""brandmatch benchmark: CLI requests timed from outside, one at a time.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {match-wide,embed-map,history-ingest}
                             --seed N --seconds S --trace {0,1} [--scale {full,tiny}]

Load is one closed-loop client: each request is a fresh ``brandmatch``
subprocess (``src/`` on ``PYTHONPATH``), started only when the previous one
has exited, because that is how a CLI user pays for a run. Every request's
outputs are checked against references computed independently from the
generator's profiles (``inputs.py``, ``checks.py``).

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` requests alternate between plain and traced
(``trace_driver.py``) and the last line holds per-layer self times and counts.
The lines before it repeat every metric by name and unit, and add the tail
latency with its percentile and sample count, the failure share and the input
facts. A full record, including the SHA-256 of every output, goes to
``perfbench/.work/results/``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SRC = ROOT / "src"

WORKLOADS = ("match-wide", "embed-map", "history-ingest")
SETUP_PROBES = 9
REQUEST_TIMEOUT_S = 120.0
# The console script's entry point, plus a report of the process's own peak RSS.
# A child's ru_maxrss also holds the peak RSS of the process it was forked from,
# so it would move with the benchmark's own memory; VmHWM belongs to the
# executed program alone.
HWM_ENV = "PERFBENCH_HWM"
CLI = f"""import os, sys
from brandmatch.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status, open(os.environ["{HWM_ENV}"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""

END_TO_END = {"setup_s": "s", "latency_p50_s": "s", "profiles_per_s": "profiles/s",
              "peak_rss_mb": "MB"}
# Span self time goes to the metric of its function, else to its layer's metric,
# so a function that cli starts importing later is still charged to its layer.
FUNCTION_METRIC = {
    "build_vocabulary": "vectorizer.vocabulary_s", "tfidf_transform": "vectorizer.tfidf_s",
    "export_matrix_tsv": "vectorizer.export_s", "pairwise_distances": "matcher.pdist_s",
    "smacof_refine": "embedding.smacof_s",
}
LAYER_METRIC = {
    "profile_store": "profile_store.load_s", "content_synthesis": "content_synthesis.synthesize_s",
    "vectorizer": "vectorizer.count_s", "matcher": "matcher.knn_s",
    "embedding": "embedding.classical_mds_s", "visualization": "visualization.svg_s",
    "cli": "cli.self_s",
}
# Counts recorded by trace_driver.py, averaged over the traced requests that record them.
COUNT_UNITS = {
    "profile_store.bytes_read": "bytes", "profile_store.posts_parsed": "count",
    "profile_store.posts_kept": "count", "content_synthesis.tokens": "count",
    "vectorizer.vocab_size": "count", "vectorizer.density": "ratio",
    "embedding.smacof_iters": "count", "embedding.stress": "dist2",
    "visualization.svg_bytes": "bytes",
}
PER_LAYER = {**{name: "s" for name in (*LAYER_METRIC.values(), *FUNCTION_METRIC.values())},
             **COUNT_UNITS, "profile_store.kept_ratio": "ratio",
             "profile_store.mb_per_s": "MB/s", "trace.overhead_frac": "ratio"}


@dataclass
class Request:
    kind: str
    argv: list[str]
    profiles: int
    outputs: dict[str, Path]
    check: Callable[[str, dict[str, Path]], list[str]]  # (stdout, outputs) -> problems


@dataclass
class Result:
    kind: str
    profiles: int
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float | None  # VmHWM of a plain request; None for a traced one
    exit_code: int
    problems: list[str]
    hashes: dict[str, str]
    spans: dict | None = field(default=None, repr=False)


def plan(workload: str, data: inputs.Inputs, requests_dir: Path) -> list[list[Request]]:
    """Request kinds of one cycle, each with the variants it rotates through."""
    common = ["--users", str(data.users), "--metadata", str(data.directory)]
    expected = data.expected
    m = len(expected["users"])
    out = {name: requests_dir / file for name, file in (
        ("report", "report.txt"), ("embedding", "embedding.tsv"), ("plot", "plot.svg"),
        ("matrix", "matrix.tsv"))}

    def match(target: str, extra: list[str], outputs: dict[str, Path]) -> Request:
        argv = ["match", *common, "--target", target, "--k", str(inputs.K_NEIGHBORS),
                "--output", str(out["report"]), *extra]
        return Request("match", argv, m, outputs,
                       lambda stdout, o: checks.check_match(stdout, o, expected, target))

    if workload == "match-wide":
        return [[match(target, [], {"report": out["report"]})
                 for target in expected["reports"]]]
    if workload == "embed-map":
        outputs = {"embedding": out["embedding"], "plot": out["plot"]}
        return [[Request("embed", ["embed", *common, "--target", expected["target"],
                                   "--embedding", str(out["embedding"]),
                                   "--plot", str(out["plot"])], m, outputs,
                         lambda stdout, o: checks.check_embed(stdout, o, expected))]]
    validate = Request("validate", ["validate", *common], m, {},
                       lambda stdout, o: checks.check_validate(stdout, expected["validate"]))
    tfidf = match(expected["target"], ["--weighting", "tfidf", "--export-matrix",
                                       str(out["matrix"])],
                  {"report": out["report"], "matrix": out["matrix"]})
    return [[validate], [tfidf]]


def run_process(argv: list[str], env: dict, stdout_path: Path) -> tuple[float, object, int]:
    """Run argv to completion; (wall seconds, child rusage, exit code)."""
    with open(stdout_path, "wb") as stdout, open(stdout_path.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(argv, env=env, stdout=stdout, stderr=err, cwd=ROOT)
        timer = threading.Timer(REQUEST_TIMEOUT_S, process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, process.returncode


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def send(request: Request, traced: bool, env: dict, requests_dir: Path, manifest: Path,
         request_id: str) -> Result:
    for path in request.outputs.values():
        path.unlink(missing_ok=True)
    stdout_path = requests_dir / "stdout.txt"
    spans_path = requests_dir / "spans.json"
    spans_path.unlink(missing_ok=True)
    hwm_path = Path(env[HWM_ENV])
    hwm_path.unlink(missing_ok=True)
    if traced:
        argv = [sys.executable, str(HERE / "trace_driver.py"), str(spans_path), str(manifest),
                request_id, "--", *request.argv]
    else:
        argv = [sys.executable, "-c", CLI, *request.argv]
    wall, usage, code = run_process(argv, env, stdout_path)
    stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
    problems, hashes = [], {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    if code != 0:
        problems.append(f"exit code {code}: "
                        + stdout_path.with_suffix(".err").read_text(errors="replace")[-500:])
    else:
        missing = [name for name, path in request.outputs.items() if not path.is_file()]
        if missing:
            problems.append(f"missing outputs: {', '.join(missing)}")
        else:
            hashes.update({name: sha256(path) for name, path in request.outputs.items()})
            problems += request.check(stdout, request.outputs)
    spans = peak_rss_mb = None
    if traced and code == 0:
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
    if not traced:
        if hwm_path.is_file():
            peak_rss_mb = int(hwm_path.read_text(encoding="utf-8")) / 1024.0
        else:
            problems.append("the request reported no peak RSS")
    return Result(request.kind, request.profiles, traced, wall, usage.ru_utime + usage.ru_stime,
                  peak_rss_mb, code, problems, hashes, spans)


def measure_setup(env: dict, requests_dir: Path) -> list[float]:
    """Wall times of cold ``brandmatch --version`` runs, after one unmeasured warm-up."""
    from brandmatch import __version__

    times = []
    for probe in range(SETUP_PROBES + 1):
        wall, _, code = run_process([sys.executable, "-c", CLI, "--version"], env,
                                    requests_dir / "version.txt")
        printed = (requests_dir / "version.txt").read_text(encoding="utf-8").strip()
        if code != 0 or printed != __version__:
            raise RuntimeError(f"brandmatch --version failed: exit {code}, printed {printed!r}")
        if probe:
            times.append(wall)
    return times


def closed_loop(cycle: list[list[Request]], seconds: float, trace: bool, env: dict,
                requests_dir: Path, manifest: Path) -> tuple[list[Result], float]:
    """Send whole cycles for about ``seconds``; (results, loop wall time).

    Another cycle starts only while it is expected to end less than half a
    cycle after the deadline, so the loop lasts ``seconds`` give or take half
    a cycle instead of always overrunning.
    """
    results: list[Result] = []
    started = time.perf_counter()
    turn = 0
    while True:
        for variants in cycle:
            request = variants[turn % len(variants)]
            for traced in ((False, True) if trace else (False,)):
                results.append(send(request, traced, env, requests_dir, manifest,
                                    f"r{len(results)}"))
        turn += 1
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / turn >= seconds:
            return results, elapsed


def typical_latency(results: list[Result]) -> float:
    """Median request wall time, averaged over request kinds when a workload mixes them."""
    kinds = dict.fromkeys(r.kind for r in results)
    return statistics.fmean(statistics.median(r.wall_s for r in results if r.kind == kind)
                            for kind in kinds)


def tail_latency(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile that has at
    least ten samples beyond it. Below 100 samples that percentile would fall under
    p90, so the slowest request (p100, none beyond) stands for the tail instead."""
    ordered = sorted(walls)
    if len(ordered) < 100:
        return ordered[-1], 100.0, 0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def end_to_end(results: list[Result], loop_s: float, setup: list[float]) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and the tail, which is printed but not bounded:
    a run's slowest request is too volatile a statistic to bound."""
    tail, percentile, beyond = tail_latency([r.wall_s for r in results])
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": typical_latency(results),
        "profiles_per_s": sum(r.profiles for r in results) / loop_s,
        "peak_rss_mb": max((r.peak_rss_mb for r in results if r.peak_rss_mb is not None),
                           default=0.0),
    }
    return metrics, {"latency_tail_s": tail, "percentile": percentile,
                     "samples_beyond": beyond, "requests": len(results)}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-metric self time of one traced request: span minus its children."""
    children: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = (children.get(span["parent"], 0.0)
                                        + span["end"] - span["start"])
    totals: dict[str, float] = {}
    for span in spans:
        metric = FUNCTION_METRIC.get(span["name"], LAYER_METRIC[span["layer"]])
        own = span["end"] - span["start"] - children.get(span["id"], 0.0)
        totals[metric] = totals.get(metric, 0.0) + own
    return totals


def per_layer(results: list[Result]) -> dict:
    """Layer self times per traced request and counts per request that records them."""
    traced = [r for r in results if r.traced]
    metrics = {name: 0.0 for name in PER_LAYER}
    for result in traced:
        for metric, seconds in self_times(result.spans["spans"]).items():
            metrics[metric] += seconds / len(traced)
    for name in COUNT_UNITS:
        values = [r.spans["counts"][name] for r in traced if name in r.spans["counts"]]
        metrics[name] = statistics.fmean(values) if values else 0.0
    kept = sum(r.spans["counts"].get("profile_store.posts_kept", 0) for r in traced)
    parsed = sum(r.spans["counts"].get("profile_store.posts_parsed", 0) for r in traced)
    read = sum(r.spans["counts"].get("profile_store.bytes_read", 0) for r in traced)
    metrics["profile_store.kept_ratio"] = kept / parsed if parsed else 0.0
    load_s = metrics["profile_store.load_s"] * len(traced)
    metrics["profile_store.mb_per_s"] = read / load_s / 1e6 if load_s else 0.0
    plain = [r for r in results if not r.traced]
    metrics["trace.overhead_frac"] = typical_latency(traced) / typical_latency(plain) - 1.0
    return metrics


def machine_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "loadavg_at_start": os.getloadavg()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny: about 26 profiles per workload, for the smoke run")
    args = parser.parse_args(argv)

    if not (SRC / "brandmatch" / "__init__.py").is_file():
        print(f"error: no brandmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import brandmatch

    if Path(brandmatch.__file__).resolve().parent != (SRC / "brandmatch").resolve():
        print(f"error: imported brandmatch from {brandmatch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    requests_dir = WORK / f"requests-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(SRC), **{HWM_ENV: str(requests_dir / "hwm.txt")})
    shutil.rmtree(requests_dir, ignore_errors=True)
    requests_dir.mkdir(parents=True)
    facts = machine_facts()
    try:
        data = inputs.prepare(args.workload, args.scale, args.seed, WORK / "inputs")
        cycle = plan(args.workload, data, requests_dir)
        setup = measure_setup(env, requests_dir)
        results, loop_s = closed_loop(cycle, args.seconds, bool(args.trace), env,
                                      requests_dir, data.manifest)
    finally:
        shutil.rmtree(requests_dir, ignore_errors=True)

    failed = sum(1 for r in results if r.problems)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "machine": facts,
              "inputs": data.info, "loop_s": loop_s, "setup_probes_s": setup,
              "failed": failed, "failed_frac": failed / len(results),
              "problems": sorted({p for r in results for p in r.problems}),
              "output_sha256": output_hashes(results),
              "requests": [{"kind": r.kind, "traced": r.traced, "wall_s": r.wall_s,
                            "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb,
                            "exit_code": r.exit_code} for r in results]}
    if args.trace:
        values = per_layer(results) if failed == 0 else {name: 0.0 for name in PER_LAYER}
        units = PER_LAYER
    else:
        values, record["tail"] = end_to_end(results, loop_s, setup)
        units = END_TO_END
    record["metrics"] = values
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} ({args.scale}), seed {args.seed}: {len(results)} "
          f"requests in {loop_s:.1f} s, inputs {data.info['profiles']} profiles, "
          f"{data.info['input_bytes']} bytes in {data.info['input_files']} files, "
          f"generated in {data.info['generate_s']:.2f} s"
          f"{' (cached)' if data.info['cached'] else ''}")
    print(f"machine: {facts}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    print(f"failed_frac {record['failed_frac']:.4f} ratio ({failed} of {len(results)})")
    if not args.trace:
        tail = record["tail"]
        print(f"latency_tail_s {tail['latency_tail_s']:.6g} s (p{tail['percentile']:.0f} of "
              f"{tail['requests']} requests, {tail['samples_beyond']} samples beyond it; "
              "not bounded)")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


def output_hashes(results: list[Result]) -> dict[str, list[str]]:
    """Distinct SHA-256 digests seen per request kind and output."""
    seen: dict[str, set[str]] = {}
    for result in results:
        for name, digest in result.hashes.items():
            seen.setdefault(f"{result.kind}.{name}", set()).add(digest)
    return {key: sorted(digests) for key, digests in sorted(seen.items())}


if __name__ == "__main__":
    sys.exit(main())
