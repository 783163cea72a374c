"""Re-record the golden digest pins of ``tests/golden.json``.

Run it with no arguments, from any directory::

    python tests/record_golden.py

It runs the test suite on the sources under ``src/`` with :func:`golden.check`
reporting each digest it is given instead of comparing it, prints each pin that
moved as ``table/case: old -> new`` and rewrites ``golden.json``.  It writes
nothing and exits 1 when a declared case reported no digest (its test failed
before its check), two checks of one case reported different digests, or a
table of the file is declared by no test module.  Tests that fail for other
reasons do not stop the record: run the suite again after it.
"""

import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def main() -> int:
    if len(sys.argv) > 1:
        sys.exit("usage: python tests/record_golden.py (it takes no arguments)")
    # the sources under test, for this process and the ones the tests start,
    # as the suite's own command line sets them
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import pytest

    import golden

    reported = golden.start_recording()
    pytest.main(["-q", "--tb=line", str(TESTS)])

    declared = {name: table.keys() for name, table in golden.TABLES.items()}
    refusals = [f"{name}/{key}: no digest reported" for name, keys in declared.items()
                for key in keys if (name, key) not in reported]
    refusals += [f"{name}/{key}: checks disagree, {sorted(digests)}"
                 for (name, key), digests in reported.items() if len(digests) > 1]
    refusals += [f"{name}: in golden.json but declared by no test module"
                 for name in golden.PINS if name not in declared]
    if refusals:
        print("\nrefusing to record golden.json:", *refusals, sep="\n  ")
        return 1

    pins = {name: {key: next(iter(reported[name, key])) for key in keys} for name, keys in declared.items()}
    moved = []
    for name, new in sorted(pins.items()):
        old = golden.PINS.get(name, {})
        moved += [f"{name}/{key}: {old.get(key)} -> {new.get(key)}"
                  for key in sorted({*old, *new}) if old.get(key) != new.get(key)]
    print("\n" + "\n".join(moved or ["no pin moved"]))
    text = golden.dump(pins)
    if golden.PATH.read_text() != text:
        golden.PATH.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
