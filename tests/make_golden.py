"""The golden outputs: CLI runs whose bytes ``tests/golden.json`` pins.

    PYTHONPATH=src python tests/make_golden.py

writes ``tests/golden.json``: the sha256 and byte length of each output,
with the Python and numpy versions that made them. ``test_golden.py``
recomputes every output in process and names each one that differs. A
change that alters output bytes on purpose runs this script again and
says which outputs changed, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from dcmetrics.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
DATA = sorted(ROOT.glob("data/*.tsv"))
UNDIRECTED = [path for path in DATA if path.read_text(encoding="utf-8").startswith("undirected\n")]
# README's d4 underflow path, and the compute-csv input's form at a tenth of its size
D4_PATH = "A\tB\t1e-170\nB\tC\t1e-160\n"
SEEDED = {"seed": 3, "edges": 20_000, "nodes": 6_000}


def _seeded_text() -> str:
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.undirected_edge_list(**SEEDED)


def cases(workdir: Path) -> dict[str, list[str]]:
    """The argument list of each output, by name; the inputs not in
    ``data/`` are written to ``workdir``."""
    d4_path, seeded = workdir / "d4-path.tsv", workdir / "seeded-20k.tsv"
    d4_path.write_text(D4_PATH, encoding="utf-8")
    seeded.write_text(_seeded_text(), encoding="utf-8")
    runs = {}
    for fmt in ("csv", "json"):
        for path in DATA:
            source = ["--input", str(path), "--format", fmt]
            runs[f"compute {path.stem} {fmt}"] = ["compute", *source]
            runs[f"compute {path.stem} dc alpha=1,2,3,30 {fmt}"] = ["compute", *source, "--metrics", "dc",
                                                                    "--alpha", "1,2,3,30"]
        runs[f"compute toy-directed direction=both {fmt}"] = [
            "compute", "--input", str(ROOT / "data" / "toy-directed.tsv"), "--direction", "both", "--format", fmt]
        for path in UNDIRECTED:
            source = ["--input", str(path), "--format", fmt]
            runs[f"compute {path.stem} all {fmt}"] = ["compute", *source, "--metrics", "all"]
            runs[f"compute {path.stem} all weighted {fmt}"] = ["compute", *source, "--metrics", "all", "--weighted"]
            runs[f"compute {path.stem} normalize {fmt}"] = ["compute", *source, "--normalize", "--alpha", "1,2"]
    for rule in ("competition", "average"):
        runs[f"rank florentine d2 {rule}"] = ["rank", "--dataset", "florentine", "--metric", "d2",
                                              "--tie-rule", rule]
        runs[f"rank zachary d1 alpha=2 {rule}"] = ["rank", "--dataset", "zachary", "--metric", "d1",
                                                   "--alpha", "2", "--tie-rule", rule]
        runs[f"rank toy-directed d3 in {rule}"] = ["rank", "--dataset", "toy-directed", "--metric", "d3",
                                                   "--direction", "in", "--tie-rule", rule]
    for metric in ("d1", "d2", "d3", "d4", "d5"):
        runs[f"bounds {metric}"] = ["bounds", "--metric", metric, "--n", "34", "--min-weight", "1",
                                    "--max-weight", "7", "--alpha", "2"]
    runs["bounds d5 n=6"] = ["bounds", "--metric", "d5", "--n", "6"]
    runs["generate n=2000"] = ["generate", "--n", "2000", "--m-attach", "3", "--weight-high", "20", "--seed", "5"]
    runs["sweep ensemble=3 seed=2"] = ["sweep", "--ensemble", "3", "--seed", "2", "--svg",
                                       str(workdir / "sweep.svg")]
    # 50 graphs of n=50: two of the sweep's chunks
    runs["sweep ensemble=50 alpha=1,2.5,7 seed=8"] = ["sweep", "--ensemble", "50", "--alphas", "1,2.5,7",
                                                      "--seed", "8"]
    runs["compute seeded-20k alpha=1,2,5"] = ["compute", "--input", str(seeded), "--alpha", "1,2,5"]
    runs["compute d4-path alpha=1,2"] = ["compute", "--input", str(d4_path), "--metrics", "d4", "--alpha", "1,2"]
    return runs


def outputs() -> dict[str, bytes]:
    """The bytes of every golden output, each run in this process."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, argv in cases(workdir).items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"{name}: exit {code}: {err.getvalue()}")
            found[name] = out.getvalue().encode("utf-8")
        found["sweep ensemble=3 seed=2 svg"] = (workdir / "sweep.svg").read_bytes()
    return found


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def main() -> None:
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "outputs": {name: digest(data) for name, data in outputs().items()},
    }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['outputs'])} outputs to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
