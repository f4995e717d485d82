"""Every ``REPRO_*`` environment knob the package reads is documented.

A knob that appears in ``src/repro`` but nowhere in README.md is either
dead (delete it) or undiscoverable (document it).
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"\bREPRO_[A-Z_]*[A-Z]\b")


def _source_knobs():
    knobs = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        knobs.update(KNOB.findall(path.read_text(encoding="utf-8")))
    return knobs


def test_every_env_knob_is_documented_in_readme():
    knobs = _source_knobs()
    assert knobs, "no REPRO_* knobs found under src/repro"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = set(KNOB.findall(readme))
    assert sorted(knobs - documented) == []
