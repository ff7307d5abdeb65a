"""The benchmark's own tests: smoke inputs, the seeded input's oracle, and the
agreement of BENCHMARK.json with what the benchmark prints.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import run
import spans

ROOT = run.ROOT
RUN = [sys.executable, os.path.join(run.HERE, "run.py")]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args) -> dict:
    proc = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return _last_json(proc.stdout)


def _cli_report(argv: list, tmp_path) -> dict:
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "lgseries.cli"] + argv
                   + ["--budget", run.BUDGET, "--out", str(out)],
                   cwd=ROOT, env=env, check=True, timeout=120)
    return json.loads(out.read_text())


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()


def test_smoke_untraced_reports_every_end_to_end_metric():
    res = _bench("--smoke", "--workload", "all", "--seconds", "0")
    assert res["correct"] and res["failed"] == 0
    for name in run.SMOKE:
        for metric, unit in run.END_TO_END.items():
            got = res["metrics"]["%s.%s" % (name, metric)]
            assert got["unit"] == unit and got["value"] > 0


def test_traced_counts_repeat_exactly():
    first = _bench("--smoke", "--workload", "all", "--seconds", "0",
                   "--trace", "1")
    second = _bench("--smoke", "--workload", "all", "--seconds", "0",
                    "--trace", "1")
    assert first["correct"] and second["correct"]
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in second["metrics"].items()
                      if v["unit"] == "count"}
    assert counts["census-section.chains.enumerate_points.yielded"] > 0
    assert counts["fr-image.series.aspect_pairs"] > 0


@pytest.mark.parametrize("experiments", [False, True])
def test_conjugated_census_equals_plain_census(tmp_path, experiments):
    n, d, d1, p, rank = 3, 4, 2, 2, 2
    flags = ["--experiments"] if experiments else []
    plain = _cli_report(["census", "--kind", "standard", "--n", str(n),
                         "--dim", str(d), "--d1", str(d1), "--s", "0",
                         "--p", str(p), "--rank", str(rank)] + flags, tmp_path)
    plain_maps = plain.pop("chain")["fs"]
    for seed in (1, 2):
        chain = run.conjugated_chain(n, d, d1, p, rank, seed)
        assert chain["fs"] != plain_maps
        path = tmp_path / ("chain-%d.json" % seed)
        path.write_text(json.dumps(chain))
        conj = _cli_report(["census", "--kind", "file", "--chain-file",
                            str(path), "--workers", "2"] + flags, tmp_path)
        conj.pop("chain")
        assert conj == plain


def test_conjugated_chain_is_a_function_of_the_seed():
    assert run.conjugated_chain(4, 4, 2, 2, 2, 7) == \
        run.conjugated_chain(4, 4, 2, 2, 2, 7)
    assert run.conjugated_chain(4, 4, 2, 2, 2, 7) != \
        run.conjugated_chain(4, 4, 2, 2, 2, 8)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "fr-image", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_child_spans(tmp_path):
    # span (id, parent, name, start, end, flag, call)
    data = {"spans": [[2, 1, "linalg.rref", 1.0, 1.5, 0, 0],
                      [3, 1, "linalg.rref", 2.0, 2.25, 0, 0],
                      [1, 0, "chains.tangent_dimension", 0.0, 3.0, 0, 0]],
            "cpu": {}}
    path = tmp_path / "spans.json"
    path.write_text(json.dumps(data))
    got = spans.layer_metrics(str(path))
    assert got["linalg.rref.calls"] == 2
    assert got["linalg.rref.self_s"] == pytest.approx(0.75)
    assert got["chains.tangent_dimension.self_s"] == pytest.approx(2.25)


def test_times_are_given_at_the_reference_speed():
    sample = {"wall_s": 3.0, "ref_s": 0.4}
    assert run._norm(sample, "wall_s") == pytest.approx(
        3.0 / 0.4 * reference.REFERENCE_S)


def test_reference_kernel_loads_only_builtin_modules():
    code = ("import sys; before = set(sys.modules); import reference; "
            "new = set(sys.modules) - before - {'reference'}; "
            "print(sorted(new - set(sys.builtin_module_names)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
