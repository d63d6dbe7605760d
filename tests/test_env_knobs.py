"""Environment-variable inventory.

Every ``SEESAW_*`` name that appears under ``src/`` must have a row in
README's "Environment variables" table, and every row there must name
a variable the package still reads. A new env knob therefore cannot
land undocumented, and a removed one cannot linger in the docs.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NAME = re.compile(r"SEESAW_[A-Z_]+")


def _source_knobs() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(_NAME.findall(path.read_text(encoding="utf-8")))
    return names


def _readme_knobs() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    head, sep, rest = text.partition("\n## Environment variables\n")
    assert sep, "README has no 'Environment variables' section"
    section = rest.split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(SEESAW_[A-Z_]+)` \|", section, re.M))


def test_every_source_knob_is_documented():
    source = _source_knobs()
    assert source, "no SEESAW_* names found under src/"
    missing = source - _readme_knobs()
    assert not missing, f"undocumented env vars: {sorted(missing)}"


def test_every_documented_knob_is_read():
    stale = _readme_knobs() - _source_knobs()
    assert not stale, f"README documents env vars src/ never reads: {sorted(stale)}"
