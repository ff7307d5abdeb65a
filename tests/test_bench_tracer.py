"""The benchmark still finds what it uses of the program.

``bench/spans.py`` looks its targets up by name and wraps each generator
function in a per-resume wrapper, so renaming a traced function, or turning
a generator into a plain function that returns an iterator, would silently
zero its metrics.  ``bench/run.py`` passes fixed command lines to the CLI,
so deleting or renaming a flag they use would fail every sample.  This
checks all three without running the benchmark, and runs the seeded census
workload's command line in process against its pinned report digest.
"""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import os

from lgseries import cli
from test_chains import conjugated_standard_chain

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
SPANS = os.path.join(BENCH, "spans.py")
RUN = os.path.join(BENCH, "run.py")


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


def _run_constants(*names):
    """The values of the named top-level literals of ``bench/run.py``, read
    from its syntax tree, so nothing of the benchmark runs."""
    with open(RUN) as fh:
        tree = ast.parse(fh.read())
    values = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id in names}
    return [values[name] for name in names]


def test_every_workload_command_line_parses():
    # as bench/run.py builds it: the workload's argv, the chain file of a
    # seeded workload, the budget and the report path
    workloads, smoke, budget = _run_constants("WORKLOADS", "SMOKE", "BUDGET")
    for name, wl in list(workloads.items()) + list(smoke.items()):
        argv = list(wl["argv"])
        if "conj" in wl:
            argv += ["--chain-file", "chain.json"]
        argv += ["--budget", budget, "--out", "report.json"]
        args = cli._parse(argv)
        assert args.command == argv[0] and args.budget == int(budget), name


def test_seeded_census_workload_gives_the_pinned_report(tmp_path):
    # the census-conj-w2 command line on the conjugated chain of three
    # seeds; conjugation is an isomorphism, so without its chain every
    # report re-serializes, as bench/run.py report_digest does, to the one
    # full pin of bench/digests.json
    [workloads, budget] = _run_constants("WORKLOADS", "BUDGET")
    wl = workloads["census-conj-w2"]
    with open(os.path.join(BENCH, "digests.json")) as fh:
        pinned = json.load(fh)["full"]["census-conj-w2"]
    for seed in (1, 2, 3):
        chain_file, out = tmp_path / "chain.json", tmp_path / "report.json"
        chain_file.write_text(json.dumps(
            conjugated_standard_chain(*wl["conj"], seed=seed).as_dict()))
        argv = list(wl["argv"]) + ["--chain-file", str(chain_file),
                                   "--budget", budget, "--out", str(out)]
        assert cli.main(argv) == 0, seed
        report = json.loads(out.read_bytes())
        del report["chain"]
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == pinned, seed
