"""One benchmark sample: a fresh interpreter that runs one lgseries CLI call.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON holds ``argv``, the CLI arguments, or null for a child that only
imports; a traced sample adds ``trace``, where to write the spans, and
``seed``, for the micro-kernels.
The child times its own import of ``lgseries.cli`` first, before it imports
anything else, so that ``setup_s`` is the cost every CLI invocation pays.
The reference kernel (bench/reference.py) runs just after the import and
just after the CLI call (a traced call gets one more run just before it),
and each time is reported with the kernel's time next to it.
It prints one JSON line with its measurements.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)

_t0 = time.perf_counter()
import lgseries.cli as cli  # noqa: E402
SETUP_S = time.perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402

import reference  # noqa: E402

_REF1 = reference.reference_s()


def _check_source() -> None:
    # Refuse to measure an installed copy instead of the checkout's source.
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("lgseries imported from %s, not from %s" % (where, SRC))


def _call(argv: list, ref_before: float) -> dict:
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    ref2 = reference.reference_s()
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return {"exit": code, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
            "ref_s": (ref_before + ref2) / 2}


def main() -> None:
    _check_source()
    spec = json.loads(sys.argv[1])
    out = {"setup_s": SETUP_S, "setup_ref_s": _REF1,
           "version": sys.modules["lgseries"].__version__}
    if spec.get("argv") is None:
        print(json.dumps(out))
        return
    if spec.get("trace"):
        import microkernels
        import spans

        out["kernels"] = microkernels.run_all(spec["seed"])
        tracer = spans.Tracer()
        tracer.install()
        try:
            out.update(_call(spec["argv"], reference.reference_s()))
        finally:
            tracer.uninstall()
        tracer.dump(spec["trace"])
    else:
        out.update(_call(spec["argv"], _REF1))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
