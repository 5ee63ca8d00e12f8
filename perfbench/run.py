"""Benchmark of the dcmetrics command-line interface.

    python3 perfbench/run.py --workload compute-csv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run makes its workload's inputs from --seed, then for --seconds spawns
`python -m dcmetrics.cli` (PYTHONPATH=src) one child at a time, times each
child from spawn to exit, takes its peak RSS from its own rusage
(os.wait4) and checks its output. Times are scaled by the fixed reference
program calibrate.py, timed on the same CPU before and after each command
(see measure). It prints a report, then one JSON line
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics.

With --trace 1 the children run perfbench/tracer.py instead, alternately
traced and untraced, and the JSON line holds the per-layer metrics: the
self time of each module, named calls, counters, and the tracing overhead.
`--workload all` runs every workload in turn and prefixes each metric with
its workload's name. Every run also writes its samples, inputs and
environment to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "out"
TRACER = ROOT / "perfbench" / "tracer.py"
SPAWNER = ROOT / "perfbench" / "spawner.py"
CALIBRATE = ROOT / "perfbench" / "calibrate.py"
# Seconds that calibrate.py takes at the reference speed: the scaled times
# are what a command would take on a machine where calibrate.py takes this
# long (close to its median, 0.38 s, on the 2-vCPU Xeon guest that the
# README describes).
REFERENCE_S = 0.4
RUN_LIMIT_S = 170.0  # a run must end within 180 s, children included
SETUP_SAMPLES = 9

LAYERS = ("cli", "io", "graph", "distinctiveness", "baselines", "stats", "generators", "svgchart")
BASELINES = ("degree", "closeness", "betweenness", "eigenvector", "constraint", "effective-size")

END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s", "success_rate": "ratio"}
PER_LAYER_UNITS = {
    "trace.total_s": "s", "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "io.parse_edge_list.self_s": "s", "graph.build_graph_s": "s",
    "graph.build_graph.calls": "count", "graph.merged_edges": "count",
    "graph.self_loops_dropped": "count", "graph.csr_bytes": "bytes",
    "distinctiveness.all_distinctiveness_s": "s",
    "distinctiveness.all_distinctiveness.calls": "count",
    "distinctiveness.arc_entries_per_s": "1/s", "graph.profile_s": "s",
    "io.from_vectors_s": "s", "io.to_json_s": "s", "io.to_csv_s": "s", "io.output_bytes": "bytes",
    "generators.barabasi_albert.self_s": "s", "generators.barabasi_albert.calls": "count",
    "graph.edges_s": "s", "io.write_edge_list.self_s": "s",
    **{f"baselines.{b}_s": "s" for b in BASELINES},
    "stats.spearman_s": "s", "stats.spearman.calls": "count",
    "stats.correlation_sweep.self_s": "s", "svgchart.render_line_chart_s": "s",
}


class Launcher:
    """Runs the timed children through spawner.py, which keeps their peak
    RSS their own, and holds the time left in this run: a child still
    running at the deadline is killed."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds
        self.proc = subprocess.Popen([sys.executable, str(SPAWNER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # the launcher exits at the end of its input
        try:
            self.proc.wait(timeout=max(self.left(), 0) + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def left(self) -> float:
        return self.end - time.monotonic()

    def run(self, args: list[str], log: Path) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MB, exit code) of ``python *args``."""
        request = {"args": args, "log": str(log), "timeout": self.left()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["exit_code"]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_time(workdir: Path, launcher: Launcher) -> float:
    """Seconds for a fresh interpreter to import dcmetrics.cli and exit."""
    log = workdir / "setup.log"
    wall, _, code = launcher.run(["-c", "import dcmetrics.cli"], log)
    if code != 0:
        raise RuntimeError("cannot import dcmetrics.cli: " + log.read_text(errors="replace")[-500:])
    return wall


def run_checked(prep, args: list[str], workdir: Path, launcher: Launcher):
    """One child run plus the check of what it wrote: (wall, rss, problems)."""
    for path in prep.outputs:
        path.unlink(missing_ok=True)
    log = workdir / "child.log"
    wall, rss, code = launcher.run(args, log)
    if code != 0:
        return wall, rss, [f"exit code {code}: {log.read_text(errors='replace')[-300:]}"]
    try:
        return wall, rss, prep.check()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return wall, rss, [f"output unreadable: {exc!r}"]


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile; a single sample is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values: list[float]) -> str:
    """The highest listed percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p} {np.percentile(values, p):.4f}"
    return "no tail percentile (needs >= 20 samples)"


def calibration_time(workdir: Path, launcher: Launcher) -> float:
    """Seconds of one run of the fixed reference program calibrate.py."""
    log = workdir / "calibrate.log"
    wall, _, code = launcher.run([str(CALIBRATE)], log)
    if code != 0:
        raise RuntimeError("calibrate.py failed: " + log.read_text(errors="replace")[-500:])
    return wall


def measure(prep, seconds: float, workdir: Path, launcher: Launcher) -> dict:
    """End-to-end samples of untraced CLI runs for ``seconds``.

    Each import and command is timed between two runs of calibrate.py on
    the same CPU, and scaled by REFERENCE_S over their mean: the machine's
    speed drifts by up to 2x within minutes, the scaled times cancel most
    of that drift, and a change in the package shows in them at full size."""
    setup_time(workdir, launcher)  # untimed: compiles the bytecode cache
    cal = [calibration_time(workdir, launcher)]
    setup, samples = [], []  # each sample keeps the index of the calibration before it
    start = time.monotonic()
    while not samples or (time.monotonic() - start < seconds and launcher.left() > 0):
        setup.append({"setup_s": setup_time(workdir, launcher), "cal": len(cal) - 1})
        wall, rss, problems = run_checked(prep, ["-m", "dcmetrics.cli", *prep.argv], workdir, launcher)
        samples.append({"wall_s": wall, "cal": len(cal) - 1, "peak_rss_mb": rss, "problems": problems})
        cal.append(calibration_time(workdir, launcher))
    while len(setup) < SETUP_SAMPLES and launcher.left() > 10:
        setup.append({"setup_s": setup_time(workdir, launcher), "cal": len(cal) - 1})
        cal.append(calibration_time(workdir, launcher))

    def scaled(sample: dict, key: str) -> float:
        k = sample["cal"]
        return sample[key] * 2.0 * REFERENCE_S / (cal[k] + cal[k + 1])

    raw = [s["wall_s"] for s in samples]
    walls = [scaled(s, "wall_s") for s in samples]
    q1, q3 = quartiles(walls)
    failed = sum(bool(s["problems"]) for s in samples)
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(prep.items / w for w in walls),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(scaled(s, "setup_s") for s in setup),
        "success_rate": 1.0 - failed / len(samples),
    }
    report = [
        f"wall_s       median {metrics['wall_s']:.4f} s, quartiles {q1:.4f}..{q3:.4f}, "
        f"min {min(walls):.4f}, max {max(walls):.4f}, "
        f"{tail(walls)}; {len(walls)} samples",
        f"             unscaled median {statistics.median(raw):.4f} s, min {min(raw):.4f}, "
        f"max {max(raw):.4f}; calibrate.py median {statistics.median(cal):.4f} s "
        f"(reference {REFERENCE_S} s) over {len(cal)} runs",
        f"items_per_s  median {metrics['items_per_s']:.1f} {prep.item_unit}/s "
        f"({prep.items} {prep.item_unit} per run)",
        f"peak_rss_mb  median {metrics['peak_rss_mb']:.2f} MB (child's own rusage)",
        f"setup_s      median {metrics['setup_s']:.4f} s over {len(setup)} imports of dcmetrics.cli "
        f"(unscaled {statistics.median(s['setup_s'] for s in setup):.4f} s)",
        f"success_rate {metrics['success_rate']:.4f} (error_rate {failed}/{len(samples)})",
    ]
    return {"metrics": metrics, "units": END_TO_END_UNITS, "attempted": len(samples),
            "failed": failed, "report": report, "samples": samples, "setup_samples": setup,
            "calibration_s": cal}


def span_times(spans: list[list]) -> tuple[dict, dict, Counter, float]:
    """Inclusive and self seconds and call counts per span name, and the
    most negative self time (below zero only if spans overlap)."""
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    inclusive, own, calls = defaultdict(float), defaultdict(float), Counter()
    worst = 0.0
    for (name, start, end, _), inner in zip(spans, children):
        inclusive[name] += end - start
        own[name] += end - start - inner
        calls[name] += 1
        worst = min(worst, end - start - inner)
    return inclusive, own, calls, worst


def layer_metrics(doc: dict, output_bytes: int) -> dict[str, float]:
    inclusive, own, calls, _ = span_times(doc["spans"])
    counters = doc["counters"]
    kernel_s = inclusive["distinctiveness.all_distinctiveness"]
    m = {"trace.total_s": doc["total_s"], "trace.overhead_s": 0.0}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for name, t in own.items() if name.split(".")[0] == layer)
    m.update({
        "io.parse_edge_list.self_s": own["io.parse_edge_list"],
        "graph.build_graph_s": inclusive["graph.build_graph"],
        "graph.build_graph.calls": calls["graph.build_graph"],
        "graph.merged_edges": counters.get("graph.merged_edges", 0),
        "graph.self_loops_dropped": counters.get("graph.self_loops_dropped", 0),
        "graph.csr_bytes": counters.get("graph.csr_bytes", 0),
        "distinctiveness.all_distinctiveness_s": kernel_s,
        "distinctiveness.all_distinctiveness.calls": calls["distinctiveness.all_distinctiveness"],
        "distinctiveness.arc_entries_per_s":
            counters.get("distinctiveness.arc_entries", 0) / kernel_s if kernel_s else 0.0,
        "graph.profile_s": inclusive["graph.profile"],
        "io.from_vectors_s": inclusive["io.from_vectors"],
        "io.to_json_s": inclusive["io.to_json"],
        "io.to_csv_s": inclusive["io.to_csv"],
        "io.output_bytes": output_bytes,
        "generators.barabasi_albert.self_s": own["generators.barabasi_albert"],
        "generators.barabasi_albert.calls": calls["generators.barabasi_albert"],
        "graph.edges_s": inclusive["graph.edges"],
        "io.write_edge_list.self_s": own["io.write_edge_list"],
        **{f"baselines.{b}_s": inclusive[f"baselines.{b}"] for b in BASELINES},
        "stats.spearman_s": inclusive["stats.spearman"],
        "stats.spearman.calls": calls["stats.spearman"],
        "stats.correlation_sweep.self_s": own["stats.correlation_sweep"],
        "svgchart.render_line_chart_s": inclusive["svgchart.render_line_chart"],
    })
    return m


def check_spans(doc: dict) -> list[str]:
    """The spans must nest, and the layers' self times must add up to the
    traced total, timed outside the spans, so that nothing of it goes
    unattributed or is counted twice."""
    _, own, _, worst = span_times(doc["spans"])
    problems = []
    if worst < -1e-6:
        problems.append(f"spans overlap: a self time of {worst:.6f} s")
    accounted, total = sum(own.values()), doc["total_s"]
    if abs(accounted - total) > 0.01 * total:
        problems.append(f"layer self times {accounted:.4f} s != traced total {total:.4f} s")
    return problems


def trace(prep, seconds: float, workdir: Path, launcher: Launcher) -> dict:
    """Per-layer metrics: traced and untraced in-process runs, alternately.
    The tracing overhead is the median over adjacent pairs of the traced
    minus the untraced total, so that both sides of a pair see the same
    machine speed."""
    spans_file = workdir / "spans.json"
    traced, overheads, attempted, failed = [], [], 0, 0
    start = time.monotonic()
    while not attempted or (time.monotonic() - start < seconds and launcher.left() > 0):
        totals = {}
        for flags in ([], ["--no-trace"]):
            spans_file.unlink(missing_ok=True)
            args = [str(TRACER), str(spans_file), *flags, "--", *prep.argv]
            _, _, problems = run_checked(prep, args, workdir, launcher)
            output_bytes = sum(p.stat().st_size for p in prep.outputs if p.exists())
            if not problems:
                doc = json.loads(spans_file.read_text(encoding="utf-8"))
                problems = [] if flags else check_spans(doc)
            if not problems:
                totals[bool(flags)] = doc["total_s"]
                if not flags:
                    traced.append((doc, output_bytes))
            attempted += 1
            failed += bool(problems)
        if len(totals) == 2:
            overheads.append(totals[False] - totals[True])
    per_run = [layer_metrics(doc, size) for doc, size in traced] or [layer_metrics(
        {"spans": [], "counters": {}, "total_s": 0.0}, 0)]
    metrics = {name: statistics.median(m[name] for m in per_run) for name in PER_LAYER_UNITS}
    metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    shares = [sum(m[f"{layer}.self_s"] for layer in LAYERS) / m["trace.total_s"]
              for m in per_run if m["trace.total_s"] > 0]
    report = [f"{name:44s} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER_UNITS.items()]
    if shares:
        report.append(f"layer self times add up to {100 * statistics.median(shares):.2f}% of the "
                      f"traced total (median over {len(traced)} traced runs); overhead over "
                      f"{len(overheads)} traced/untraced pairs")
    return {"metrics": metrics, "units": PER_LAYER_UNITS, "attempted": attempted, "failed": failed,
            "report": report, "traced_runs": len(traced), "overhead_pairs": len(overheads)}


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown'
    in a checkout that is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "load_average": os.getloadavg(),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = WORK / name
    with Launcher(RUN_LIMIT_S) as launcher:
        prep = WORKLOADS[name].prepare(seed, workdir)
        result = (trace if traced else measure)(prep, seconds, workdir, launcher)
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(traced), argv=prep.argv,
                  inputs=prep.inputs, environment=environment())
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps({k: v for k, v in result.items() if k != "report"}, indent=1))
    print(f"== {name} seed={seed} trace={int(traced)}: {result['attempted']} runs, "
          f"{result['failed']} failed; details in {path.relative_to(ROOT)}")
    print("   inputs: " + json.dumps(prep.inputs))
    for line in result["report"]:
        print("   " + line)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dcmetrics" / "cli.py").is_file():
        print(f"error: no dcmetrics sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": r["units"][k]} for k, v in r["metrics"].items()})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
