"""Every golden output keeps its bytes: ``tests/make_golden.py`` lists the
CLI runs, and ``tests/golden.json`` holds what they wrote when it was made."""

import json

import make_golden


def test_outputs_match_the_golden_file():
    golden = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))
    found = {name: make_golden.digest(data) for name, data in make_golden.outputs().items()}
    assert found.keys() == golden["outputs"].keys()
    differ = sorted(name for name, recorded in golden["outputs"].items() if found[name] != recorded)
    made_with = f"python {golden['python']}, numpy {golden['numpy']}"
    assert not differ, f"{len(differ)} outputs differ from tests/golden.json ({made_with}): {differ}"
