"""Benchmark of the lgseries CLI: four exhaustive workloads, one child at a time.

Usage (from the repository root):

    python3 bench/run.py --workload census-section --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke --workload all --seconds 0 --trace 1

Each sample is a fresh interpreter (bench/child.py) that imports
``lgseries.cli`` from ``src/`` and runs one CLI call; samples run one after
another (a closed loop with one client) until the next one would end after
``--seconds``, counted from the start of set-up; at least one runs.  Every
report is checked against a sha256 pinned in bench/digests.json.  Times are
given at a fixed machine speed: divided by the time of the reference kernel
(bench/reference.py) that the same child runs next to them.  With
``--trace 0`` the last line of output holds the end-to-end metrics (medians
over the samples); with ``--trace 1`` one more, traced sample follows and
the last line holds the per-layer metrics.  See bench/README.md for why each
workload is there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
BUDGET = "1000000000"
CHILD_TIMEOUT_S = 150

# name -> CLI arguments, the report field holding the point count, and the
# seeded conjugated chain (n, d, d1, p, rank) for the one seeded workload.
WORKLOADS = {
    "census-section": {
        "argv": ["census", "--kind", "section", "--degree", "3", "--rank", "2",
                 "--p", "2", "--workers", "1"],
        "count": "points"},
    "fr-image": {
        "argv": ["fr-image", "--degree", "3", "--rank", "1", "--p", "2"],
        "count": "points"},
    "enum-lls": {
        "argv": ["enum-lls", "--degree", "3", "--rank", "1", "--p", "3"],
        "count": "count"},
    "census-conj-w2": {
        "argv": ["census", "--kind", "file", "--experiments", "--workers", "2"],
        "count": "points", "conj": (2, 4, 2, 2, 2)},
}
SMOKE = {
    "census-section": {
        "argv": ["census", "--kind", "section", "--degree", "2", "--rank", "1",
                 "--p", "2", "--workers", "1"],
        "count": "points"},
    "fr-image": {
        "argv": ["fr-image", "--degree", "2", "--rank", "0", "--p", "2"],
        "count": "points"},
    "enum-lls": {
        "argv": ["enum-lls", "--degree", "2", "--rank", "0", "--p", "2"],
        "count": "count"},
    "census-conj-w2": {
        "argv": ["census", "--kind", "file", "--experiments", "--workers", "2"],
        "count": "points", "conj": (2, 4, 2, 2, 2)},
}

END_TO_END = {"wall_norm_s": "s", "points_per_norm_s": "1/s",
              "cpu_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
COUNT_UNIT = "count"


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in the order they are reported."""
    units = {}
    for name in spans.REPORTED:
        units[name + ".calls"] = COUNT_UNIT
        if name in spans.GENERATORS:
            units[name + ".yielded"] = COUNT_UNIT
        units[name + ".self_s"] = "s"
    units.update({
        "chains.candidates": COUNT_UNIT, "chains.point_yield": "ratio",
        "chains.census.cpu_over_wall": "ratio",
        "chains.census.max_partition_share": "ratio",
        "series.aspect_pairs": COUNT_UNIT, "series.crude_share": "ratio",
        "cli.emit_s": "s", "cli.report_bytes": "B",
        "linalg.rref_5x6_us": "us", "fields.fp_mul_ns": "ns",
        "trace_overhead": "ratio", "raw.wall_s": "s",
        "raw.reference_s": "s"})
    return units


# --- the seeded input: a standard chain conjugated by a random P ---------

def _inverse_mod(m: list, p: int):
    """Inverse of a square matrix over GF(p), or None when singular."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        sel = next((i for i in range(col, n) if aug[i][col] % p), None)
        if sel is None:
            return None
        aug[col], aug[sel] = aug[sel], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [(inv * x) % p for x in aug[col]]
        for i in range(n):
            c = aug[i][col]
            if i != col and c:
                aug[i] = [(a - c * b) % p for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _matmul(a: list, b: list, p: int) -> list:
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


def conjugated_chain(n: int, d: int, d1: int, p: int, rank: int,
                     seed: int) -> dict:
    """The standard s = 0 chain (f projects onto the first d1 coordinates, g
    onto the rest) with f -> P f P^-1 and g -> P g P^-1 for a random
    invertible P drawn from ``seed``, as ``LinkedChain.as_dict`` writes it.
    Conjugation is an isomorphism, so its census equals the plain one apart
    from the ``chain`` field."""
    rng = random.Random(seed)
    while True:
        pm = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        pinv = _inverse_mod(pm, p)
        if pinv is not None:
            break
    f = [[int(i == j and i < d1) for j in range(d)] for i in range(d)]
    g = [[int(i == j and i >= d1) for j in range(d)] for i in range(d)]
    ring = {"p": p, "dual": False}

    def conj(m):
        out = _matmul(_matmul(pm, m, p), pinv, p)
        return {"ring": ring, "rows": d, "cols": d,
                "entries": [x for row in out for x in row]}

    return {"ring": ring, "n": n, "d": d, "r": rank, "s": 0,
            "fs": [conj(f)] * (n - 1), "gs": [conj(g)] * (n - 1)}


# --- samples ----------------------------------------------------------------

def report_digest(data: bytes, drop_chain: bool) -> str:
    """sha256 of the report bytes; for a seeded chain, of the report without
    its ``chain`` field, serialized as the CLI serializes reports."""
    if drop_chain:
        report = json.loads(data)
        del report["chain"]
        data = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def run_child(spec: dict) -> dict:
    """Run one child to completion and return its JSON line."""
    proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": "child exited %d: %s" % (proc.returncode, tail[0])}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_sample(sample: dict, wl: dict, report_path: str, pinned: str) -> dict:
    """Add ``ok``, ``count``, ``digest`` and ``report_bytes`` to a sample."""
    sample["ok"] = False
    if "error" in sample:
        return sample
    if sample["exit"] != 0:
        sample["error"] = "exit code %d" % sample["exit"]
        return sample
    with open(report_path, "rb") as fh:
        data = fh.read()
    os.remove(report_path)
    report = json.loads(data)
    sample["report_bytes"] = len(data)
    sample["count"] = report[wl["count"]]
    sample["digest"] = report_digest(data, "conj" in wl)
    if sample["digest"] != pinned:
        sample["error"] = "report digest %s != pinned %s" % (sample["digest"],
                                                            pinned)
    elif report.get("equal") is False:
        sample["error"] = "fr-image report has equal: false"
    else:
        sample["ok"] = True
    return sample


def workload_argv(name: str, wl: dict, seed: int) -> list:
    argv = list(wl["argv"])
    if "conj" in wl:
        path = os.path.join(OUT, "conj-%s-%d.json" % (name, seed))
        with open(path, "w") as fh:
            json.dump(conjugated_chain(*wl["conj"], seed), fh)
        argv += ["--chain-file", path]
    return argv + ["--budget", BUDGET]


def measure(name: str, wl: dict, pinned: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """Set up, run one warm-up sample (checked, not timed), then run samples
    until the next one would end after ``seconds``; at least one runs."""
    start = time.perf_counter()
    argv = workload_argv(name, wl, seed)
    report_path = os.path.join(OUT, "%s.report" % name)
    run_child({"argv": None})  # writes the bytecode cache; not measured
    spec = {"argv": argv + ["--out", report_path]}
    warmup = check_sample(run_child(spec), wl, report_path, pinned)
    samples = []
    durations = []
    while not samples or (time.perf_counter() - start
                          + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        samples.append(check_sample(run_child(spec), wl, report_path, pinned))
        durations.append(time.perf_counter() - t0)
    traced = None
    spans_path = os.path.join(OUT, "spans-%s.json" % name)
    if trace:
        spec = {"argv": argv + ["--out", report_path], "seed": seed,
                "trace": spans_path}
        traced = check_sample(run_child(spec), wl, report_path, pinned)
        if traced["ok"] and not traced["kernels"]["ok"]:
            traced.update(ok=False, error="micro-kernel output mismatch")
    return {"warmup": warmup, "samples": samples,
            "traced": traced, "spans": spans_path}


def _median(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def _norm(sample: dict, key: str, ref: str = "ref_s") -> float:
    """A time in seconds at the reference machine speed: divided by the time
    of the reference kernel run next to it, times ``reference.REFERENCE_S``."""
    return sample[key] / sample[ref] * reference.REFERENCE_S


def _norm_median(samples: list, key: str, ref: str = "ref_s") -> float:
    return statistics.median(_norm(s, key, ref) for s in samples)


def end_to_end(run: dict) -> dict:
    samples = run["samples"]
    wall = _norm_median(samples, "wall_s")
    values = {"wall_norm_s": wall,
              "points_per_norm_s": _median(samples, "count") / wall,
              "cpu_norm_s": _norm_median(samples, "cpu_s"),
              "peak_rss_mb": _median(samples, "peak_rss_mb"),
              "setup_s": _norm_median(samples, "setup_s", "setup_ref_s")}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(run: dict) -> dict:
    traced = run["traced"]
    values = spans.layer_metrics(run["spans"])
    values["cli.report_bytes"] = traced["report_bytes"]
    values["linalg.rref_5x6_us"] = traced["kernels"]["linalg.rref_5x6_us"]
    values["fields.fp_mul_ns"] = traced["kernels"]["fields.fp_mul_ns"]
    values["trace_overhead"] = (_norm(traced, "wall_s")
                                / _norm_median(run["samples"], "wall_s"))
    values["raw.wall_s"] = _median(run["samples"], "wall_s")
    values["raw.reference_s"] = _median(run["samples"], "ref_s")
    return {k: {"value": values[k], "unit": u}
            for k, u in per_layer_units().items()}


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_workload(name: str, wl: dict, pinned: str, args) -> dict:
    run = measure(name, wl, pinned, args.seed, args.seconds, bool(args.trace))
    attempted = ([run["warmup"]] + run["samples"]
                 + ([run["traced"]] if run["traced"] else []))
    failed = [s for s in attempted if not s["ok"]]
    for s in failed:
        print("FAIL %s: %s" % (name, s.get("error")), file=sys.stderr)
    ok = [s for s in attempted if s["ok"]]
    if failed:
        metrics = {}
    else:
        metrics = per_layer(run) if args.trace else end_to_end(run)
    detail = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "samples": len(run["samples"]),
        "fail_rate": len(failed) / len(attempted),
        "wall_s": [s.get("wall_s") for s in run["samples"]],
        "ref_s": [s.get("ref_s") for s in run["samples"]],
        "digest": ok[0]["digest"] if ok else None,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "lgseries_version": ok[0].get("version") if ok else None}
    return {"detail": detail, "attempted": len(attempted),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lgseries", "cli.py")):
        print("no lgseries source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json")) as fh:
        pins = json.load(fh)["smoke" if args.smoke else "full"]
    table = SMOKE if args.smoke else WORKLOADS
    names = sorted(table) if args.workload == "all" else [args.workload]
    os.makedirs(OUT, exist_ok=True)
    results = {name: run_workload(name, table[name], pins[name], args)
               for name in names}
    for name, res in results.items():
        print(json.dumps(res["detail"], sort_keys=True))
        for metric, m in res["metrics"].items():
            print("%-16s %-44s %14.6g %s" % (name, metric, m["value"],
                                            m["unit"]))
        print("%-16s %-44s %14.6g %s" % (name, "fail_rate",
                                        res["detail"]["fail_rate"], "ratio"))
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {"%s.%s" % (name, k): v for name, res in results.items()
                   for k, v in res["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
