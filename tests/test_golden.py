"""Every command of ``tests/golden/regenerate.py`` prints the bytes of its golden file."""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def test_every_golden_file_has_a_command():
    names = [name for name, _ in regenerate.COMMANDS]
    assert len(set(names)) == len(names)
    assert sorted(p.stem for p in (GOLDEN / "out").glob("*.txt")) == sorted(names)


@pytest.mark.parametrize("name, argv", regenerate.COMMANDS, ids=[n for n, _ in regenerate.COMMANDS])
def test_stable_output_matches_golden(name, argv):
    expected = (GOLDEN / "out" / f"{name}.txt").read_text(encoding="utf-8")
    assert regenerate.run(argv) == expected
