"""Golden digest pins: every pinned digest is read from ``golden.json``, and compared here.

The file maps a table name to its cases, each case's key its parts joined by
"/", and each key to a SHA-256 hex digest.  A test module declares each of its
tables with :func:`table`, over cases the module itself defines, parametrizes
its test over them, and hands each digest it computes to :func:`check`, the one
place a pinned digest is compared.  ``python tests/record_golden.py`` re-records
the file through the same ``check``.
"""

import json
from dataclasses import dataclass
from pathlib import Path

PATH = Path(__file__).with_name("golden.json")
PINS = json.loads(PATH.read_text())

# every declared table by name, as the test modules declare them
TABLES = {}

# while the recorder runs: the digests check was given, by (table, key)
_reported = None


def case_key(case) -> str:
    """A case's key in the file: a tuple's parts joined by "/", else the case itself."""
    return "/".join(map(str, case)) if isinstance(case, tuple) else str(case)


@dataclass(frozen=True)
class Table:
    """A pinned table: its name in the file and the cases its test runs over."""

    name: str
    cases: tuple

    def keys(self) -> list:
        return [case_key(case) for case in self.cases]


def table(name: str, cases) -> Table:
    """Declare the pinned table ``name`` over ``cases``, in the order its test runs them."""
    TABLES[name] = Table(name, tuple(cases))
    return TABLES[name]


def check(table: Table, case, digest: str) -> None:
    """Fail with ``table/case: old -> new`` unless ``digest`` is the one pinned for ``case``."""
    key = case_key(case)
    if key not in table.keys():
        raise AssertionError(f"{table.name}/{key} is not a declared case of its table")
    if _reported is not None:
        _reported.setdefault((table.name, key), set()).add(digest)
        return
    pinned = PINS.get(table.name, {}).get(key)
    if digest != pinned:
        raise AssertionError(f"{table.name}/{key}: {pinned} -> {digest}")


def start_recording() -> dict:
    """Make :func:`check` report each digest instead of comparing it; return the report.

    The report maps (table, key) to the set of digests given for it.
    """
    global _reported
    _reported = {}
    return _reported


def dump(pins: dict) -> str:
    """The text of ``golden.json`` holding ``pins``."""
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"
