"""The benchmark's span tracer still finds what it traces.

``bench/spans.py`` looks its targets up by name and wraps each generator
function in a per-resume wrapper, so renaming a traced function, or turning
a generator into a plain function that returns an iterator, would silently
zero its metrics.  This checks both without running the benchmark.
"""

import importlib
import importlib.util
import inspect
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(home: str, attr: str):
    owner = importlib.import_module(home)
    if "." in attr:
        cls_name, meth = attr.split(".")
        raw = getattr(owner, cls_name).__dict__[meth]
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(owner, attr)


def test_every_traced_target_resolves():
    spans = _spans_module()
    for home, attr, _name in spans.TARGETS:
        assert callable(_resolve(home, attr)), (home, attr)


def test_traced_generators_are_generator_functions():
    spans = _spans_module()
    by_name = {name: (home, attr) for home, attr, name in spans.TARGETS}
    assert set(spans.GENERATORS) <= set(by_name)
    for name in spans.GENERATORS:
        assert inspect.isgeneratorfunction(_resolve(*by_name[name])), name
