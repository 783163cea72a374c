"""Golden digest pins have one owner: ``golden.json``, read and compared by ``golden``."""

import ast
import importlib
import re
from pathlib import Path

import golden

TESTS = Path(__file__).parent


def test_no_test_source_spells_out_a_digest():
    # a SHA-256 hex literal in a test is a pin outside golden.json, which the
    # recorder would neither read nor rewrite
    digest = re.compile(r"^[0-9a-f]{64}$")
    offenders = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and digest.match(node.value):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_the_file_pins_exactly_the_declared_cases():
    # every test module declares its tables on import; a key no test runs is
    # an orphaned pin, and a case with no key can never pass
    for path in sorted(TESTS.glob("test_*.py")):
        importlib.import_module(path.stem)
    declared = {name: table.keys() for name, table in golden.TABLES.items()}
    for name, keys in declared.items():
        assert len(set(keys)) == len(keys), name
    assert {name: sorted(keys) for name, keys in declared.items()} == {
        name: sorted(pins) for name, pins in golden.PINS.items()
    }
