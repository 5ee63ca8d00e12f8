"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

It checks that BENCHMARK.json names workloads of workloads.py and the
metrics run.py reports; that for every workload a real CLI run passes the
output check and a corrupted output cell fails it; that an untraced run
reports every end-to-end metric; that a traced run attributes its whole
total to the layers, and ends when every run fails; that a child's peak
RSS excludes the benchmark's own memory; and that run.py exits non-zero,
printing no result, in a directory that holds only the benchmark. Prints one line per
check and exits 1 if any fails. The file name keeps pytest from
collecting it with the package's own tests.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys

import run
from oracle import METRICS
from workloads import DEFAULT_SEED, WORKLOADS, Prepared

WORK = run.WORK / "selftest"


def _edit_line(path, pick, sep: str, column: int, new) -> None:
    """Replace one cell of the first line that ``pick`` accepts."""
    lines = path.read_text(encoding="utf-8").split("\n")
    i = next(k for k, line in enumerate(lines) if pick(line))
    cells = lines[i].split(sep)
    cells[column] = new(cells[column])
    lines[i] = sep.join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def _edit_json(path) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    values = doc["columns"][-1]["values"]
    values[0] = values[0] * 1.000001 + 1e-9
    path.write_text(json.dumps(doc), encoding="utf-8")


def _scaled(x: str) -> str:
    return f"{float(x) * 1.001:.6g}"


def _is_edge(line: str) -> bool:
    return line.count("\t") == 2


def _is_sweep_row(line: str) -> bool:
    return line.split(",")[0] in METRICS


# per workload: (what the corruption is, how to apply it to the first output)
CORRUPTIONS = {
    "compute-csv": [("d5 score off by 0.1%",
                     lambda p: _edit_line(p, lambda s: not s.startswith("node"), ",", -1, _scaled))],
    "compute-directed-json": [("d5-out score off by 1e-6", _edit_json)],
    "sweep": [("rho off in the 4th digit (recorded bytes)",
               lambda p: _edit_line(p, _is_sweep_row, ",", 3, lambda x: f"{float(x) - 0.001:.6g}")),
              ("rho of 1.5", lambda p: _edit_line(p, _is_sweep_row, ",", 3, lambda x: "1.5"))],
    "generate": [("weight 20 -> 19 or other -> 20 (recorded bytes)",
                  lambda p: _edit_line(p, _is_edge, "\t", 2,
                                       lambda x: "19.0" if x == "20.0" else "20.0")),
                 ("weight of 21", lambda p: _edit_line(p, _is_edge, "\t", 2, lambda x: "21.0"))],
}


def check_manifest() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload that workloads.WORKLOADS lacks")
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        if {m["name"]: m["unit"] for m in spec[key]} != units:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py reports")
    return problems


def check_workload(name: str) -> list[str]:
    workdir = WORK / name
    problems = []
    for what, corrupt in CORRUPTIONS[name]:
        prep = WORKLOADS[name].prepare(DEFAULT_SEED, workdir, tiny=True)
        with run.Launcher(120) as launcher:
            _, _, found = run.run_checked(prep, ["-m", "dcmetrics.cli", *prep.argv], workdir, launcher)
        if found:
            return [f"clean run fails its check: {found[:3]}"]
        corrupt(prep.outputs[0])
        if not prep.check():
            problems.append(f"corruption not detected: {what}")
    return problems


def check_measure() -> list[str]:
    """An untraced run reports every end-to-end metric, each above zero."""
    workdir = WORK / "measure"
    prep = WORKLOADS["sweep"].prepare(DEFAULT_SEED, workdir, tiny=True)
    with run.Launcher(120) as launcher:
        result = run.measure(prep, 0.0, workdir, launcher)
    m = result["metrics"]
    problems = [] if result["failed"] == 0 else ["a run failed"]
    if set(m) != set(run.END_TO_END_UNITS) or not all(v > 0 for v in m.values()):
        problems.append(f"end-to-end metrics missing or not above zero: {m}")
    return problems


def check_trace(name: str) -> list[str]:
    workdir = WORK / f"{name}-trace"
    prep = WORKLOADS[name].prepare(DEFAULT_SEED, workdir, tiny=True)
    with run.Launcher(120) as launcher:
        result = run.trace(prep, 0.0, workdir, launcher)
    m = result["metrics"]
    accounted = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
    problems = [] if result["failed"] == 0 else ["a traced or untraced run failed"]
    if abs(accounted - m["trace.total_s"]) > 0.01 * m["trace.total_s"]:
        problems.append(f"layer self times {accounted:.4f} s != traced total {m['trace.total_s']:.4f} s")
    return problems


def check_trace_of_failing_cli() -> list[str]:
    """A CLI that fails every run must end the traced loop, all failed."""
    workdir = WORK / "failing-trace"
    workdir.mkdir(parents=True, exist_ok=True)
    prep = Prepared(argv=["no-such-command"], outputs=[], items=1, item_unit="runs", inputs=[],
                    check=lambda: [])

    def give_up(signum, frame):
        raise TimeoutError

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(90)
    try:
        with run.Launcher(60) as launcher:
            result = run.trace(prep, 1.0, workdir, launcher)
    except TimeoutError:
        return ["the traced loop was still running after 90 s"]
    finally:
        signal.alarm(0)
    if result["attempted"] == 0 or result["failed"] != result["attempted"]:
        return [f"{result['failed']} of {result['attempted']} runs of a failing CLI failed"]
    return []


def check_rss_is_the_childs() -> list[str]:
    """A child's peak RSS must not include the benchmark's own memory."""
    ballast = b"x" * (200 * 2**20)  # 200 MB of touched pages in this process
    WORK.mkdir(parents=True, exist_ok=True)
    with run.Launcher(60) as launcher:
        _, rss, code = launcher.run(["-c", "pass"], WORK / "rss.log")
    del ballast
    return [] if code == 0 and rss < 100 else [f"an empty child reports {rss:.0f} MB peak RSS"]


def check_bare_directory() -> list[str]:
    """run.py, given only BENCHMARK.json and perfbench/, must fail cleanly."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py in a directory without the sources did not fail cleanly"]
    return []


def main() -> int:
    checks = [("BENCHMARK.json matches run.py", check_manifest)]
    checks += [(f"{name}: clean run passes, corrupted cells fail", lambda n=name: check_workload(n))
               for name in WORKLOADS]
    checks.append(("untraced run reports every end-to-end metric", check_measure))
    checks += [(f"{name} traced: self times add up", lambda n=name: check_trace(n))
               for name in WORKLOADS]
    checks.append(("traced run of a failing CLI ends, every run failed", check_trace_of_failing_cli))
    checks.append(("peak RSS is the child's own", check_rss_is_the_childs))
    checks.append(("no sources: exits non-zero without a result", check_bare_directory))
    failed = 0
    for title, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {title}" + "".join(f"\n     {p}" for p in problems))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
