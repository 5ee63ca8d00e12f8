"""Fixed reference program that run.py times beside each CLI command.

    python perfbench/calibrate.py

It does a fixed amount of the kinds of work the CLI does: start an
interpreter, import numpy, sort and gather arrays, build and walk dicts of
ints and format strings. It uses nothing from the package, so no change to
the package changes its time; its time moves only with the speed the CPU
gives at that moment. run.py divides each command's wall time by it.
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    values = rng.random(250_000)
    order = np.argsort(values, kind="stable")
    gathered = values[order].cumsum()
    rows: dict[int, dict[int, int]] = {}
    for i, j in zip(rng.integers(0, 20_000, 100_000).tolist(), order[:100_000].tolist()):
        row = rows.setdefault(i, {})
        row[j % 5_000] = row.get(j % 5_000, 0) + 1
    total = sum(len(row) for row in rows.values())
    text = "\n".join(f"{i}\t{len(row)}\t{gathered[i]:.6g}" for i, row in rows.items())
    if total <= 0 or not text:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
