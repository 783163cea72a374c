"""The benchmark's span tracer (``perfbench/tracer.py``) still installs on randinf.

The tracer finds randinf's functions by name, private boundaries such as
``combine._combine_matrix`` included; a name that disappears would crash
every traced benchmark run without failing any other test.
"""

import importlib.util
from pathlib import Path

import randinf.cli


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_randinf_and_restores_every_binding():
    main = randinf.cli.main
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert randinf.cli.main is not main and randinf.cli.main.__wrapped__ is main
        wrapped = {(mod.__name__, attr) for mod, attr, _ in patched}
        assert {("randinf.combine", "_combine_matrix"), ("randinf.combine", "_mc_reference_cdf")} <= wrapped
    finally:
        tracer.uninstall()
    assert patched
    for mod, attr, original in patched:
        assert getattr(mod, attr) is original
