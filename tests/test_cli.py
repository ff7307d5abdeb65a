import gc
import hashlib
import io
import itertools
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lgseries import chains, cli, linalg, series
from lgseries.chains import ChainPoint
from lgseries.cli import main
from lgseries.fields import PrimeField
from lgseries.linalg import Subspace
from lgseries.series import (LimitSeriesPoint, NodalModel,
                             enumerate_limit_series)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def listing_text(*args) -> str:
    """The text of the chunks of ``cli._listing_json_text(*args)``, which
    are ASCII bytes."""
    return b"".join(cli._listing_json_text(*args)).decode("ascii")


def test_census_cross_chain(capsys):
    code, out, _ = run(capsys, "census", "--kind", "standard", "--n", "2",
                       "--dim", "2", "--d1", "1", "--s", "0", "--p", "2",
                       "--rank", "1", "--budget", "1000")
    assert code == 0
    rep = json.loads(out)
    assert rep["points"] == 5
    assert rep["exact"] == 4
    assert rep["schema_version"] == 1


def test_census_deterministic_bytes(capsys):
    args = ("census", "--kind", "section", "--degree", "2", "--rank", "0",
            "--p", "2", "--budget", "10000")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_census_workers_same_bytes(capsys):
    base = ("census", "--kind", "standard", "--n", "2", "--dim", "3", "--d1",
            "1", "--s", "0", "--p", "2", "--rank", "1", "--budget", "10000")
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base, "--workers", "3")
    assert out1 == out2


def test_census_budget_exit_code(capsys):
    code, _, err = run(capsys, "census", "--kind", "standard", "--n", "2",
                       "--dim", "4", "--d1", "2", "--s", "0", "--p", "2",
                       "--rank", "2", "--budget", "3")
    assert code == 3
    assert "error" in json.loads(err)


def test_invalid_parameters_exit_code(capsys):
    code, _, err = run(capsys, "census", "--kind", "standard", "--n", "2",
                       "--dim", "2", "--d1", "0", "--s", "0", "--p", "2",
                       "--rank", "1", "--budget", "10")
    assert code == 2
    code, _, _ = run(capsys, "census", "--kind", "standard")  # missing budget
    assert code == 2


def test_validate_chain_ok_and_violation(capsys):
    code, out, _ = run(capsys, "validate-chain", "--kind", "section",
                       "--degree", "3", "--p", "3", "--rank", "1")
    assert code == 0
    assert json.loads(out)["ok"]
    # an invalid chain from file: f = g = diag(1, 0), s = 0
    import tempfile

    bad = {
        "ring": {"p": 2, "dual": False}, "n": 2, "d": 2, "r": 1, "s": 0,
        "fs": [{"ring": {"p": 2, "dual": False}, "rows": 2, "cols": 2,
                "entries": [1, 0, 0, 0]}],
        "gs": [{"ring": {"p": 2, "dual": False}, "rows": 2, "cols": 2,
                "entries": [1, 0, 0, 0]}],
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(bad, fh)
        path = fh.name
    code, out, _ = run(capsys, "validate-chain", "--kind", "file",
                       "--chain-file", path)
    assert code == 4
    assert not json.loads(out)["ok"]


def test_components_n2_match(capsys):
    code, out, _ = run(capsys, "components-n2", "--dim", "4", "--rank", "2",
                       "--d1", "2", "--budget", "100000")
    assert code == 0
    rep = json.loads(out)
    assert rep["expected"] == 3 and rep["observed"] == 3 and rep["match"]


def test_rho_command(capsys):
    code, out, _ = run(capsys, "rho", "--genus", "0", "--rank", "1",
                       "--degree", "2")
    assert code == 0
    assert json.loads(out)["rho"] == 2


def test_vanishing_command_json_and_csv(capsys):
    code, out, _ = run(capsys, "vanishing", "--degree", "2", "--p", "5",
                       "--basis", "[[1,0,0],[0,0,1]]", "--point", "inf")
    assert code == 0
    rep = json.loads(out)
    assert rep["vanishing"] == [0, 2]
    code, out, _ = run(capsys, "vanishing", "--degree", "2", "--p", "5",
                       "--basis", "[[1,0,0],[0,0,1]]", "--point", "inf",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "point,j,a_j,alpha_j"


def test_plucker_command(capsys):
    code, out, _ = run(capsys, "plucker", "--degree", "2", "--p", "5",
                       "--basis", "[[1,0,0],[0,0,1]]")
    assert code == 0
    rep = json.loads(out)
    assert rep["bound"] == 2 and rep["found_weight"] == 2
    assert rep["separable"] and rep["all_inspected_tame"]


def test_fr_image_command(capsys):
    code, out, _ = run(capsys, "fr-image", "--degree", "1", "--rank", "0",
                       "--p", "2", "--budget", "100000")
    assert code == 0
    rep = json.loads(out)
    assert rep["equal"]
    assert rep["points"] == 5


def test_reconstruct_and_lift_commands(capsys):
    code, out, _ = run(capsys, "reconstruct", "--degree", "2", "--p", "2",
                       "--vy", "[[0,1,0]]", "--vz", "[[0,1,0]]")
    assert code == 0
    rep = json.loads(out)
    assert rep["point"]["point"]["spaces"][1]["basis"] == [[1, 0, 0]]
    code, out, _ = run(capsys, "lift-crude", "--degree", "2", "--p", "2",
                       "--vy", "[[0,0,1]]", "--vz", "[[0,1,1]]")
    assert code == 0
    rep = json.loads(out)
    assert rep["point"]["point"]["spaces"][1]["basis"] == [[0, 1, 0]]
    # non-refined input to reconstruct: invalid input
    code, _, err = run(capsys, "reconstruct", "--degree", "2", "--p", "2",
                       "--vy", "[[0,0,1]]", "--vz", "[[0,0,1]]")
    assert code == 2


def test_dual_probe_command(capsys):
    for p in ("2", "3", "5"):
        code, out, _ = run(capsys, "dual-probe", "--p", p)
        assert code == 0
        rep = json.loads(out)
        assert rep["a_y"] == [1] and rep["a_z"] == [0]
        assert rep["a_y_mod_eps"] == [2] and rep["a_z_mod_eps"] == [1]
        assert rep["d_minus_1_inequality_holds"]
        assert not rep["d_inequality_holds"]



# sha256 of `dual-probe --p P` stdout, as computed by listing dual-number
# minors; deciding the rank conditions over GF(p) must not move a byte
DUAL_PROBE_SHA256 = {
    2: "a30952a39693203f8588e5ad562dd6f1c9db2d630d6de9bbecca9cc97d4cc55a",
    3: "be84c206a112fde223838b758ec00c3e40dcbcab7834064d86599b65ec77ddeb",
    5: "cb1b8c6fbe7d808b762c64fad9deb998e08eab4d1c2f819dc888b8822e38ffd1",
    7: "fb6ff65c7247d4179df98905eb18b47a3caaf4e3bcd6594b5fb59ae99dc39874",
    11: "87f3cea278e1f83df0b30d5fd0f92af1b22938bf6eaba6f459c1d8eb8c159cfa",
}


def test_dual_probe_bytes_pinned(capsys):
    for p, digest in DUAL_PROBE_SHA256.items():
        code, out, _ = run(capsys, "dual-probe", "--p", str(p))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

# sha256 of census stdout, taken before the per-point analysis moved onto
# one set of frame products; exhaustive reports must not change
CENSUS_SHA256 = {
    "census --kind section --degree 3 --rank 1 --p 2 --budget 100000 "
    "--experiments":
        "8fd99333c53008b5d91fd89d76fbd422c32229066dc8135bdd07ecd1bda38263",
    "census --kind standard --n 3 --dim 4 --d1 2 --s 0 --p 2 --rank 2 "
    "--budget 1000000 --experiments":
        "6d29437049265ac991412295814aa1bf21d76b9cc4257cb1a1690915e5cd7aab",
    "census --kind standard --n 3 --dim 3 --d1 1 --s 2 --p 3 --rank 2 "
    "--budget 100000":
        "073ae790b746667a48a6c3409ead9ca4dc350c9253618041cf656d6ee1cc757d",
    "census --kind standard --n 2 --dim 4 --d1 2 --s 0 --p 3 --rank 2 "
    "--budget 1000000 --experiments":
        "89565e33620ca75842a802e31d3ab546f07074a2b94a98ca6873ec830ed573a5",
    # taken before the interval nodes were built on int rows
    "census --kind section --degree 3 --rank 2 --p 2 --budget 1000000000":
        "eaf2a4d4b89bfb287fcb4a91a0bc809902044b36a044c3fed122d8f4a49c620b",
    # taken while the signature graph still walked the point stream
    "census --kind standard --n 8 --dim 4 --d1 2 --s 0 --p 3 --rank 2 "
    "--budget 1000000000 --experiments":
        "64fa66b0cd63091a684a2326e912eb3b2f5536123d00e3b74a8ad77b98bdc22a",
    # two chains with more equations per state, taken while a census state
    # was held by a basis of its maps
    "census --kind section --degree 4 --rank 1 --p 2 --budget 1000000000 "
    "--experiments":
        "434109ccbb143c15f49ec61be02013d9dc198afc02e402021d185bd04a22e735",
    "census --kind standard --n 5 --dim 5 --d1 2 --s 0 --p 2 --rank 2 "
    "--budget 1000000000 --experiments":
        "7d1339b17d1eca77681f7483f8f69f897df692e00a0eb081acea7db27df53195",
}


def test_census_bytes_pinned(capsys):
    for argv, digest in CENSUS_SHA256.items():
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of fr-image stdout (with --budget 1000000000), taken before the
# interval nodes were built on int rows
FR_IMAGE_SHA256 = {
    ("--degree", "3", "--rank", "1", "--p", "2"):
        "d65546ac8205f9bcbc013892e9e257421aba317257a99f813515424c44846c90",
    ("--degree", "3", "--rank", "1", "--p", "3"):
        "775967ae71d38c7ecf5a886156e6d8c2eaf00df05885c6c696bb9546a7e15443",
    ("--degree", "2", "--rank", "0", "--p", "11"):  # two-digit entries
        "be47a1629bfab45fb1181d1b76febb16672d087c4e865c4bd98520fe7300b533",
}


def test_fr_image_bytes_pinned(capsys):
    for argv, digest in FR_IMAGE_SHA256.items():
        code, out, _ = run(capsys, "fr-image", *argv, "--budget", "1000000000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_fr_image_names_a_missing_crude_pair(capsys, monkeypatch):
    # boundary counts with one crude pair of (2, 0, 2) dropped: the report
    # names exactly that pair, and the command exits 4 after writing it
    real = series.boundary_counts

    def dropping(*args):
        counts = real(*args)
        gone = next(key for key in counts
                    if series.crude_orders(key[0].pivots, key[1].pivots, 2))
        dropped.append([list(map(list, (gone[0].key(), gone[1].key())))])
        del counts[gone]
        return counts

    dropped = []
    monkeypatch.setattr(series, "boundary_counts", dropping)
    rep = series.fr_image_report(2, 0, 2)
    assert not rep.equal and rep.fr_not_crude == []
    assert rep.crude_not_fr == dropped[0]
    code, out, err = run(capsys, "fr-image", "--degree", "2", "--rank", "0",
                         "--p", "2", "--budget", "100000")
    assert code == 4 and err == ""
    head = json.loads(out)
    assert not head["equal"] and head["crude_not_fr"] == dropped[1]


def test_fr_image_bytes_pinned_without_a_point_walk(capsys, monkeypatch):
    from lgseries import chains

    def forbidden(*args, **kwargs):
        raise AssertionError("fr-image walked a point")
    monkeypatch.setattr(chains, "_walk", forbidden)
    monkeypatch.setattr(series, "forgetful_map", forbidden)
    test_fr_image_bytes_pinned(capsys)


def test_fr_image_writer_matches_json_dumps(capsys, tmp_path):
    # rank 0, the top rank r = d - 1 (r = d has no series and exits 2), and
    # the pinned cases: stdout and --out against json.dumps of the report's
    # as_dict
    path = tmp_path / "fr.json"
    for d, r, p in ((2, 0, 2), (3, 0, 2), (1, 0, 3), (2, 1, 3), (3, 2, 2),
                    (3, 1, 2), (3, 1, 3)):
        want = cli._json_text(series.fr_image_report(d, r, p).as_dict())
        code, out, err = run(capsys, "fr-image", "--degree", str(d),
                             "--rank", str(r), "--p", str(p),
                             "--budget", "1000000000")
        assert code == 0 and err == "" and out == want + "\n", (d, r, p)
        code, out, err = run(capsys, "fr-image", "--degree", str(d),
                             "--rank", str(r), "--p", str(p),
                             "--budget", "1000000000", "--out", str(path))
        assert code == 0 and err == "" and out == ""
        assert path.read_bytes() == (want + "\n").encode("ascii"), (d, r, p)
    code, out, _ = run(capsys, "fr-image", "--degree", "2", "--rank", "2",
                       "--p", "2", "--budget", "1000")
    assert code == 2 and out == ""


def test_chain_longer_than_recursion_limit(capsys):
    flags = ("--kind", "standard", "--n", "1500", "--dim", "2", "--d1", "1",
             "--s", "1", "--p", "2", "--rank", "0", "--budget", "10000")
    code, out, _ = run(capsys, "census", *flags)
    assert code == 0
    assert json.loads(out)["points"] == 1
    code, out, _ = run(capsys, "tangent", *flags)
    assert code == 0
    assert json.loads(out)["tangent_dimension"] == 0


def test_enum_lls_command(capsys):
    code, out, _ = run(capsys, "enum-lls", "--degree", "1", "--rank", "0",
                       "--p", "2", "--budget", "10000")
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 5


# sha256 of enum-lls stdout (with --budget 1000000000), taken before the
# report was written from per-subspace fragments
ENUM_LLS_SHA256 = {
    ("--degree", "3", "--rank", "1", "--p", "3"):  # 1,147 points
        "8d34c3e78f854e7ef16c7c1f654272be981d485eeb08bb5016531ed4d82d844a",
    ("--degree", "2", "--rank", "1", "--p", "5"):  # 116 points
        "1802d28cc84a03dedeb70a3b06a55c3dd11bf97d92ec53cd8bc116ebfc64435b",
    ("--degree", "2", "--rank", "0", "--p", "11"):  # 397 points, entries to 10
        "2cba6adce08bf4da94df518486bb6784a7bd19077cc2913077a6ab16b9949667",
    ("--degree", "3", "--rank", "0", "--p", "2", "--constraints",
     '[{"side":"Y","point":0,"min":[1]},{"side":"Z","point":"inf","min":[1]}]'):
        "d8e0c834e6b790b06be9d96915683fbc11af74cee1fcb6ca3384de3c1b0dd59b",
    ("--degree", "2", "--rank", "0", "--p", "2", "--constraints",
     '[{"side":"Y","point":-1,"min":[5]}]'):  # no point meets it
        "848b2466e1797e0b8b469b836d95f9ee3410925f262dec032a371c6e6621ce35",
}


def test_enum_lls_bytes_pinned(capsys):
    for argv, digest in ENUM_LLS_SHA256.items():
        code, out, _ = run(capsys, "enum-lls", *argv, "--budget", "1000000000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def _enum_lls_by_json_dumps(degree, rank, p, constraints):
    """The enum-lls report text built from ``as_dict`` and ``json.dumps``."""
    pts = [lsp.as_dict() for lsp in enumerate_limit_series(
        degree, rank, p, constraints=constraints)]
    report = {"schema_version": 1, "d": degree, "r": rank, "q": p,
              "count": len(pts), "points": pts}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_enum_lls_writer_matches_json_dumps(capsys, tmp_path, monkeypatch):
    # stdout, --out and json.dumps agree byte for byte, with and without
    # constraints and with no point listed; the 2 MB listing of d=3 r=1 p=3
    # goes out in several bounded chunks and keeps its pinned digest
    y_and_z = [{"side": "Y", "point": 0, "min": [1]},
               {"side": "Z", "point": "inf", "min": [1]}]
    unmet = [{"side": "Y", "point": -1, "min": [5]}]
    path = tmp_path / "lls.json"
    real, chunks = cli._listing_json_text, []

    def counted(*args):
        for chunk in real(*args):
            chunks.append(len(chunk))
            yield chunk

    monkeypatch.setattr(cli, "_listing_json_text", counted)
    for degree, rank, p, cons in ((1, 0, 2, None), (2, 1, 3, None),
                                  (3, 0, 2, y_and_z), (2, 0, 2, unmet),
                                  (3, 1, 3, None)):
        want = _enum_lls_by_json_dumps(degree, rank, p, cons)
        argv = ["enum-lls", "--degree", str(degree), "--rank", str(rank),
                "--p", str(p), "--budget", "1000000"]
        if cons is not None:
            argv += ["--constraints", json.dumps(cons)]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out == want
        chunks.clear()
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_bytes() == want.encode("ascii")
        if cons is unmet:
            assert json.loads(want)["count"] == 0 and len(chunks) == 1
    digest = ENUM_LLS_SHA256[("--degree", "3", "--rank", "1", "--p", "3")]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert len(chunks) >= 8 and all(
        cli._CHUNK <= size < 2 * cli._CHUNK for size in chunks[:-1])


def test_fragment_writer_matches_json_dumps_on_mixed_values():
    # the listing writer, with the enum-lls point template, against json.dumps, around a report head of mixed
    # values: rank 0 (one-dimensional spaces), rank 1, a two-level chain,
    # count 0 (a constraint no point meets), and hand-made points whose
    # spaces are zero-dimensional
    unmet = [{"side": "Y", "point": -1, "min": [5]}]
    cases = [((degree, rank, p), list(enumerate_limit_series(
                 degree, rank, p, constraints=cons)))
             for degree, rank, p, cons in ((2, 0, 2, None), (2, 1, 3, None),
                                           (1, 0, 5, None), (2, 0, 2, unmet))]
    zero = Subspace.zero_space(PrimeField(3), 2)
    cases.append(((1, 0, 3), [LimitSeriesPoint(NodalModel(1, 3),
                                                ChainPoint([zero, zero]))] * 2))
    head = {"schema_version": 1, "s": "two\nlines", "a": {},
            "t": [True, None, -1, 0.5], "c": {"deep": [[]]}}
    for (degree, rank, p), pts in cases:
        report = dict(head, d=degree, r=rank, q=p, count=len(pts))
        want = json.dumps(dict(report, points=[lsp.as_dict() for lsp in pts]),
                          sort_keys=True, indent=2)
        point = {"d": degree, "p": p,
                 "point": {"spaces": ["\0"] * (degree + 1)}}
        assert listing_text(
            report, "points", point, [lsp.point.spaces for lsp in pts]) == want
    assert [len(pts) for _, pts in cases][3] == 0


def test_enum_lls_budget_boundary_writes_nothing(capsys, tmp_path):
    # the stream of d=3 r=1 p=3 takes 2,266 candidates off its stack
    base = ("enum-lls", "--degree", "3", "--rank", "1", "--p", "3")
    path = tmp_path / "lls.json"
    code, out, err = run(capsys, *base, "--budget", "2265", "--out", str(path))
    assert code == 3 and out == "" and not path.exists()
    one_json_error(err)
    code, out, err = run(capsys, *base, "--budget", "2265")
    assert code == 3 and out == ""
    one_json_error(err)
    code, out, err = run(capsys, *base, "--budget", "2266")
    assert code == 0 and err == ""
    assert json.loads(out)["count"] == 1147


def test_listing_is_written_in_bounded_memory(capsys, tmp_path,
                                              monkeypatch):
    # the 2 MB enum-lls listing goes to --out chunk by chunk: writing it
    # never holds a quarter of the report text
    import tracemalloc

    real, peaks = cli._emit, []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            real(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_emit", traced)
    path = tmp_path / "lls.json"
    code, _, err = run(capsys, "enum-lls", "--degree", "3", "--rank", "1",
                       "--p", "3", "--budget", "1000000", "--out", str(path))
    size = path.stat().st_size
    assert code == 0 and err == "" and size > 2_000_000
    assert len(peaks) == 1 and peaks[0] < size / 4, (peaks, size)


@pytest.mark.parametrize("argv", [
    ("enum-lls", "--degree", "3", "--rank", "1", "--p", "3"),
    ("census", "--kind", "section", "--degree", "3", "--rank", "1", "--p",
     "2")])
@pytest.mark.parametrize("target", ["directory", "missing", "/dev/full"])
def test_an_unwritable_out_exits_2(capsys, tmp_path, argv, target):
    # a directory, a path under a missing directory, and a full device,
    # where the listing fails in the middle of its chunked write: one JSON
    # line on stderr, no traceback, nothing on stdout
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full here")
    out = {"directory": str(tmp_path), "missing": str(tmp_path / "no" / "r"),
           "/dev/full": target}[target]
    code, stdout, err = run(capsys, *argv, "--budget", "1000000",
                            "--out", out)
    assert code == 2 and stdout == ""
    assert "Traceback" not in err
    one_json_error(err)


def test_main_restores_the_gc_thresholds(capsys, monkeypatch):
    # a command runs with a generation-0 threshold of 100,000; the caller's
    # thresholds are back after main returns, whatever its exit code
    before = gc.get_threshold()
    during = []
    real = cli._emit

    def recording(*args, **kwargs):
        during.append(gc.get_threshold())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "_emit", recording)
    gc.set_threshold(500, 7, 9)
    try:
        for argv, want in (
                (("rho", "--genus", "0", "--rank", "1", "--degree", "2"), 0),
                (("rho", "--genus", "x"), 2),
                (("enum-lls", "--degree", "3", "--rank", "1", "--p", "3",
                  "--budget", "2265"), 3)):
            code, _, _ = run(capsys, *argv)
            assert code == want and gc.get_threshold() == (500, 7, 9), argv
    finally:
        gc.set_threshold(*before)
    assert during == [(100_000, 7, 9)]


def test_negative_series_rank_exit_code(capsys):
    for argv in (("enum-lls", "--degree", "3", "--rank", "-1", "--p", "3"),
                 ("census", "--kind", "section", "--degree", "2", "--rank",
                  "-1", "--p", "2"),
                 ("fr-image", "--degree", "2", "--rank", "-1", "--p", "2")):
        code, out, err = run(capsys, *argv, "--budget", "1000")
        assert code == 2 and out == "", argv
        assert one_json_error(err)["error"] == \
            "series rank r must be nonnegative, got -1"


def test_tangent_command(capsys):
    code, out, _ = run(capsys, "tangent", "--kind", "standard", "--n", "2",
                       "--dim", "2", "--d1", "1", "--s", "0", "--p", "2",
                       "--rank", "1", "--budget", "1000", "--point-index", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["tangent_dimension"] in (1, 2)
    assert rep["smooth_floor"] == 1


def test_tangent_command_point_file(capsys, tmp_path, monkeypatch):
    # the node of the two-level cross chain, supplied as a JSON point; its
    # signature and tangent dimension come from one join of its steps
    point = {"spaces": [
        {"ring": {"p": 2, "dual": False}, "ambient_dim": 2, "rank": 1,
         "basis": [[0, 1]]},
        {"ring": {"p": 2, "dual": False}, "ambient_dim": 2, "rank": 1,
         "basis": [[1, 0]]},
    ]}
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(point))
    real, calls = chains._path_steps, []
    monkeypatch.setattr(chains, "_path_steps",
                        lambda *args: calls.append(args) or real(*args))
    code, out, _ = run(capsys, "tangent", "--kind", "standard", "--n", "2",
                       "--dim", "2", "--d1", "1", "--s", "0", "--p", "2",
                       "--rank", "1", "--budget", "1000",
                       "--point-file", str(path))
    assert code == 0 and len(calls) == 1
    rep = json.loads(out)
    assert rep["tangent_dimension"] == 2
    assert not rep["signature"]["exact"]


def test_tangent_point_file_rejects_dual_ring(capsys, tmp_path):
    level = {"ring": {"p": 2, "dual": True}, "ambient_dim": 2, "rank": 1,
             "basis": [[[0, 0], [1, 0]]]}
    path = tmp_path / "pt.json"
    path.write_text(json.dumps({"spaces": [level, level]}))
    code, out, err = run(capsys, "tangent", "--kind", "standard", "--n", "2",
                         "--dim", "2", "--d1", "1", "--rank", "1", "--p", "2",
                         "--budget", "1000", "--point-file", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "error" in json.loads(err)


def test_tangent_point_file_rejects_unlinked_point(capsys, tmp_path):
    # V_0 = <(1, 0)>, V_1 = <(1, 1)>: f_0(V_0) = <(1, 0)> is not in V_1
    ring = {"p": 2, "dual": False}
    point = {"spaces": [
        {"ring": ring, "ambient_dim": 2, "rank": 1, "basis": [[1, 0]]},
        {"ring": ring, "ambient_dim": 2, "rank": 1, "basis": [[1, 1]]},
    ]}
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(point))
    code, out, err = run(capsys, "tangent", "--kind", "standard", "--n", "2",
                         "--dim", "2", "--d1", "1", "--rank", "1", "--p", "2",
                         "--budget", "1000", "--point-file", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert "non-linked point: f_0(V_0) is not in V_1" in error


def test_tangent_point_file_rejects_wrong_stated_rank(capsys, tmp_path):
    # each level's basis spans a line, but the file states rank 7
    level = {"ring": {"p": 2, "dual": False}, "ambient_dim": 2, "rank": 7,
             "basis": [[0, 1]]}
    path = tmp_path / "pt.json"
    path.write_text(json.dumps({"spaces": [level, level]}))
    code, out, err = run(capsys, "tangent", "--kind", "standard", "--n", "2",
                         "--dim", "2", "--d1", "1", "--rank", "1", "--p", "2",
                         "--budget", "1000", "--point-file", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "rank" in json.loads(err)["error"]


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"genus": 0, "rank": 1, "degree": 2}))
    code, out, _ = run(capsys, "--config", str(cfg), "rho")
    assert code == 0
    assert json.loads(out)["rho"] == 2
    code, out, _ = run(capsys, "--config", str(cfg), "rho", "--degree", "3")
    assert code == 0
    assert json.loads(out)["rho"] == 4  # flags override the config


def test_report_roundtrip(capsys):
    code, out, _ = run(capsys, "census", "--kind", "standard", "--n", "2",
                       "--dim", "2", "--d1", "1", "--s", "0", "--p", "2",
                       "--rank", "1", "--budget", "1000")
    rep = json.loads(out)
    assert json.loads(json.dumps(rep, sort_keys=True)) == rep
    from lgseries.chains import LinkedChain

    chain = LinkedChain.from_dict(rep["chain"])
    assert chain.n == 2 and chain.d == 2


def test_out_file(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "rho", "--genus", "0", "--rank", "0",
                       "--degree", "2", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["rho"] == 2


def one_json_error(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1, err
    rep = json.loads(lines[0])
    assert "error" in rep
    return rep


def chain_dict(p, fs, gs, s=0, r=1):
    """A two-level chain of 2x2 maps, as LinkedChain.as_dict writes it."""
    ring = {"p": p, "dual": False}
    return {"ring": ring, "n": 2, "d": 2, "r": r, "s": s,
            "fs": [{"ring": ring, "rows": 2, "cols": 2, "entries": fs}],
            "gs": [{"ring": ring, "rows": 2, "cols": 2, "entries": gs}]}


def test_non_integer_basis_entry_exit_code(capsys):
    code, out, err = run(capsys, "vanishing", "--degree", "2", "--p", "5",
                         "--basis", "[[1.5,0,0]]", "--point", "0")
    assert code == 2 and out == ""
    assert "1.5" in one_json_error(err)["error"]


def test_chain_file_non_integer_entries_exit_code(capsys, tmp_path):
    for bad in ("a", 0.5):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_dict(2, [1, bad, 0, 0], [0, 0, 0, 1])))
        code, _, err = run(capsys, "census", "--kind", "file", "--chain-file",
                           str(path), "--budget", "100")
        assert code == 2
        one_json_error(err)


def test_chain_file_top_level_list_exit_code(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps([chain_dict(2, [1, 0, 0, 0], [0, 0, 0, 1])]))
    code, _, err = run(capsys, "census", "--kind", "file", "--chain-file",
                       str(path), "--budget", "100")
    assert code == 2
    one_json_error(err)


def test_chain_file_ring_must_be_a_prime_field(capsys, tmp_path):
    # "dual" is a JSON boolean, and a chain's ring is a prime field
    path = tmp_path / "chain.json"
    for dual in (True, "no", [0]):
        chain = chain_dict(2, [1, 0, 0, 0], [0, 0, 0, 1])
        chain["ring"] = {"p": 2, "dual": dual}
        path.write_text(json.dumps(chain))
        code, out, err = run(capsys, "census", "--kind", "file",
                             "--chain-file", str(path), "--budget", "100")
        assert code == 2 and out == "", dual
        one_json_error(err)


def test_a_missing_key_is_named_with_its_object(capsys, tmp_path):
    ring = {"p": 2, "dual": False}
    no_entries = chain_dict(2, [1, 0, 0, 0], [0, 0, 0, 1])
    del no_entries["fs"][0]["entries"]
    level = {"ring": ring, "ambient_dim": 2, "basis": [[0, 1]]}
    path = tmp_path / "in.json"
    std = ["--kind", "standard", "--n", "2", "--dim", "2", "--d1", "1",
           "--rank", "1", "--p", "2", "--budget", "1000"]
    for doc, argv, message in (
            ({"n": 2}, ["census", "--kind", "file", "--budget", "100"],
             "a chain is missing key 'ring'"),
            (no_entries, ["census", "--kind", "file", "--budget", "100"],
             "a matrix is missing key 'entries'"),
            (dict(chain_dict(2, [1, 0, 0, 0], [0, 0, 0, 1]), ring={}),
             ["census", "--kind", "file", "--budget", "100"],
             "a chain ring is missing key 'p'"),
            ({"spaces": [level, level]},
             ["tangent"] + std + ["--point-file", str(path)],
             "a subspace is missing key 'rank'"),
            ({}, ["tangent"] + std + ["--point-file", str(path)],
             "a chain point is missing key 'spaces'")):
        path.write_text(json.dumps(doc))
        if argv[0] == "census":
            argv = argv + ["--chain-file", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert one_json_error(err)["error"] == message


def test_a_huge_grassmannian_is_streamed_pattern_by_pattern(capsys,
                                                            monkeypatch):
    # C(40, 20) pivot patterns: listing them before the first space would
    # not finish, so a third pattern drawn fails the test at once
    real = linalg.pivot_patterns

    def two_patterns(d, r):
        yield from itertools.islice(real(d, r), 2)
        raise AssertionError("a third pivot pattern was drawn")

    monkeypatch.setattr(linalg, "pivot_patterns", two_patterns)
    first = next(linalg.enumerate_subspaces(22, 11, 2))
    assert first.pivots == tuple(range(11))
    code, out, err = run(capsys, "components-n2", "--dim", "40", "--rank",
                         "20", "--d1", "20", "--p", "2", "--budget", "5")
    assert code == 3 and out == ""
    one_json_error(err)


def test_census_validates_file_chain_first(capsys, tmp_path):
    # f = g = id over GF(3) with s = 0 breaks f*g = s*id and ker f = im g
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_dict(3, [1, 0, 0, 1], [1, 0, 0, 1])))
    code, _, _ = run(capsys, "validate-chain", "--kind", "file",
                     "--chain-file", str(path))
    assert code == 4
    code, out, err = run(capsys, "census", "--kind", "file", "--chain-file",
                         str(path), "--budget", "1000")
    assert code == 2 and out == ""
    rep = one_json_error(err)
    assert {v["condition"] for v in rep["violations"]} == {"I", "II"}


def test_census_of_valid_file_chain_unchanged(capsys, tmp_path):
    _, plain, _ = run(capsys, "census", "--kind", "standard", "--n", "2",
                      "--dim", "2", "--d1", "1", "--s", "0", "--p", "2",
                      "--rank", "1", "--budget", "1000")
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_dict(2, [1, 0, 0, 0], [0, 0, 0, 1])))
    code, out, _ = run(capsys, "census", "--kind", "file", "--chain-file",
                       str(path), "--budget", "1000")
    assert code == 0
    assert out == plain


def test_config_equals_form(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"genus": 0, "rank": 1, "degree": 3}))
    code, out, _ = run(capsys, "--config=%s" % cfg, "rho")
    assert code == 0
    assert json.loads(out)["rho"] == 4
    code, out, _ = run(capsys, "--config=%s" % cfg, "rho", "--degree", "2")
    assert code == 0
    assert json.loads(out)["rho"] == 2


def test_config_unreadable_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "--config=%s" % (tmp_path / "missing.json"),
                       "rho")
    assert code == 2
    one_json_error(err)
    code, _, err = run(capsys, "rho", "--config")
    assert code == 2
    one_json_error(err)


def test_negative_budget_exit_code(capsys):
    code, out, err = run(capsys, "census", "--kind", "standard", "--budget",
                         "-1")
    assert code == 2 and out == ""
    assert "budget" in one_json_error(err)["error"]


def test_nonpositive_workers_exit_code(capsys):
    for workers in ("0", "-3"):
        code, out, err = run(capsys, "census", "--kind", "standard",
                             "--budget", "1000", "--workers", workers)
        assert code == 2 and out == ""
        assert "workers" in one_json_error(err)["error"]


def test_limits_from_config_are_checked(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"budget": -5}))
    code, _, err = run(capsys, "--config", str(cfg), "census", "--kind",
                       "standard")
    assert code == 2
    one_json_error(err)


def test_negative_point_index_exit_code(capsys, tmp_path):
    # rejected before the stream is walked, so a small budget cannot turn
    # it into exit 3
    tangent = ("tangent", "--kind", "section", "--degree", "3", "--rank",
               "1", "--p", "3", "--budget", "100")
    code, out, err = run(capsys, *tangent, "--point-index", "-1")
    assert code == 2 and out == ""
    assert "--point-index" in one_json_error(err)["error"]
    cfg = tmp_path / "c.json"
    for value in (-1, "-1"):
        cfg.write_text(json.dumps({"point_index": value}))
        code, out, err = run(capsys, "--config", str(cfg), *tangent)
        assert code == 2 and out == ""
        assert "--point-index" in one_json_error(err)["error"]


def test_usage_errors_are_one_json_line(capsys):
    code, _, err = run(capsys, "census", "--kind", "standard")
    assert code == 2
    assert "--budget" in one_json_error(err)["error"]


def test_tangent_validates_file_chain_first(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_dict(3, [1, 0, 0, 1], [1, 0, 0, 1])))
    code, out, err = run(capsys, "tangent", "--kind", "file", "--chain-file",
                         str(path), "--budget", "1000")
    assert code == 2 and out == ""
    assert one_json_error(err)["violations"]


def test_constraints_not_objects_exit_code(capsys):
    code, out, err = run(capsys, "enum-lls", "--degree", "2", "--rank", "0",
                         "--p", "2", "--budget", "1000", "--constraints",
                         "[1]")
    assert code == 2 and out == ""
    assert "constraint" in one_json_error(err)["error"]


def test_alphas_not_lists_exit_code(capsys):
    code, out, err = run(capsys, "rho", "--genus", "0", "--rank", "1",
                         "--degree", "2", "--alphas", "[1]")
    assert code == 2 and out == ""
    assert "alphas" in one_json_error(err)["error"]


def test_constraint_unknown_side_exit_code(capsys):
    code, out, err = run(capsys, "enum-lls", "--degree", "2", "--rank", "0",
                         "--p", "2", "--budget", "1000", "--constraints",
                         '[{"side": "Q", "point": 0, "min": [1]}]')
    assert code == 2 and out == ""
    assert "side" in one_json_error(err)["error"]


def test_fr_image_budget_boundary(capsys):
    # the level-0 stream alone spends G(4, 2, 2) = 35 units; the whole point
    # stream of d=3 r=1 p=2 examines 592 candidates
    base = ("fr-image", "--degree", "3", "--rank", "1", "--p", "2")
    code, out, err = run(capsys, *base, "--budget", "591")
    assert code == 3 and out == ""
    one_json_error(err)
    code, out, err = run(capsys, *base, "--budget", "592")
    assert code == 0 and err == ""
    assert json.loads(out)["equal"]


CENSUS_BUDGET_BOUNDARY = {
    # candidates the whole point stream examines
    ("--kind", "section", "--degree", "3", "--rank", "2", "--p", "2"): 208,
    ("--kind", "section", "--degree", "3", "--rank", "1", "--p", "3"): 2266,
    ("--kind", "standard", "--n", "3", "--dim", "4", "--d1", "2", "--s", "0",
     "--p", "2", "--rank", "2", "--experiments", "--workers", "2"): 351,
}


def test_census_budget_boundary(capsys):
    for flags, n in CENSUS_BUDGET_BOUNDARY.items():
        code, out, err = run(capsys, "census", *flags, "--budget", str(n - 1))
        assert code == 3 and out == "", flags
        one_json_error(err)
        code, out, err = run(capsys, "census", *flags, "--budget", str(n))
        assert code == 0 and err == "", flags
        json.loads(out)


def test_census_at_a_large_prime_exits_on_budget(capsys):
    # the level-0 stream counts out GF(p) instead of listing it
    code, out, err = run(capsys, "census", "--kind", "standard", "--n", "2",
                         "--dim", "2", "--d1", "1", "--rank", "1", "--p",
                         "1000003", "--budget", "5")
    assert code == 3 and out == ""
    one_json_error(err)


def test_components_n2_d1_out_of_range_exit_code(capsys):
    for dim, d1 in (("3", "5"), ("2", "-2"), ("3", "0"), ("3", "3")):
        code, out, err = run(capsys, "components-n2", "--dim", dim, "--rank",
                             "1", "--d1", d1, "--budget", "100")
        assert code == 2 and out == "", (dim, d1)
        assert "d1" in one_json_error(err)["error"]


def test_rho_negative_genus_or_rank_exit_code(capsys):
    for genus, rank in (("-1", "1"), ("0", "-1")):
        code, out, err = run(capsys, "rho", "--genus", genus, "--rank", rank,
                             "--degree", "2")
        assert code == 2 and out == ""
        one_json_error(err)


def test_rho_negative_degree_exit_code(capsys):
    code, out, err = run(capsys, "rho", "--genus", "0", "--rank", "1",
                         "--degree", "-3")
    assert code == 2 and out == ""
    assert "d >= 0" in one_json_error(err)["error"]



PLUCKER = ("plucker", "--degree", "2", "--p", "5", "--basis",
           "[[0,0,1],[1,0,0]]")


def test_plucker_bad_genus_or_repeated_point_exit_code(capsys):
    for extra in (("--points", "0,0,0,0,0,0,0"), ("--genus", "-3"),
                  ("--points", "0,5")):
        code, out, err = run(capsys, *PLUCKER, *extra)
        assert code == 2 and out == ""
        one_json_error(err)


def test_config_values_checked_like_flags(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    census = ("census", "--budget", "100")
    rho = ("rho", "--genus", "0", "--rank", "1", "--degree", "2")
    for config, argv in (({"rank": 1.5}, census), ({"n": 2.0}, census),
                         ({"degree": 2.5}, census + ("--kind", "section")),
                         ({"genus": 0.5}, ("rho", "--rank", "1", "--degree",
                                           "2")),
                         ({"format": "xml"}, census),
                         ({"experiments": "no"}, census),
                         ({"out": 5}, rho)):
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2 and out == "", config
        assert repr(next(iter(config))) in one_json_error(err)["error"]


def test_config_values_checked_for_every_command(capsys, tmp_path):
    # a config value is checked against every flag of its name, even one
    # the running command lacks or its command line overrides, so a shared
    # file cannot hold a bad value that surfaces only in another call
    cfg = tmp_path / "c.json"
    for config, argv in (({"degree": "x"}, ("rho", "--genus", "0", "--rank",
                                            "1", "--degree", "2")),
                         ({"genus": 1.5}, ("census", "--budget", "100"))):
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2 and out == "", config
        assert repr(next(iter(config))) in one_json_error(err)["error"]


def test_config_string_values_still_work(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"genus": "0", "rank": "1", "degree": "2"}))
    code, out, _ = run(capsys, "--config", str(cfg), "rho")
    assert code == 0 and json.loads(out)["rho"] == 2
    cfg.write_text(json.dumps({"kind": "standard", "budget": "1000",
                               "format": "csv", "experiments": False}))
    code, out, _ = run(capsys, "--config", str(cfg), "census")
    assert code == 0 and out.startswith("f_ranks,g_ranks,count")

def test_plucker_empty_points_exit_code(capsys):
    code, out, err = run(capsys, *PLUCKER, "--points", "")
    assert code == 2 and out == ""
    assert ("--points must name at least one point"
            in one_json_error(err)["error"])


SECTION_CENSUS = ("census", "--kind", "section", "--degree", "2", "--rank",
                  "0", "--p", "3", "--budget", "10000")


def test_census_csv_rows_are_the_json_signatures(capsys):
    code, out, _ = run(capsys, *SECTION_CENSUS, "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows == ["f_ranks,g_ranks,count", "0 0,1 1,9", "0 1,1 0,11",
                    "1 1,0 0,9"]
    code, out, _ = run(capsys, *SECTION_CENSUS)
    assert code == 0
    assert rows[1:] == ["%s,%s,%d" % (" ".join(map(str, f)),
                                      " ".join(map(str, g)), count)
                        for (f, g), count in json.loads(out)["signatures"]]


def test_census_csv_refuses_experiments(capsys, tmp_path):
    # CSV has no column for the signature graph, so the pair is refused
    # rather than the graph dropped, whichever side names each flag
    cfg = tmp_path / "c.json"
    for config, extra in (({}, ("--format", "csv", "--experiments")),
                          ({"format": "csv"}, ("--experiments",)),
                          ({"experiments": True}, ("--format", "csv")),
                          ({"format": "csv", "experiments": True}, ())):
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "--config", str(cfg), *SECTION_CENSUS,
                             *extra)
        assert code == 2 and out == "", config
        error = one_json_error(err)["error"]
        assert "--format csv" in error and "--experiments" in error


# --- the front end reads the flags straight from the command table ---------

COMMANDS = ("validate-chain", "census", "tangent", "components-n2",
            "enum-lls", "fr-image", "reconstruct", "lift-crude", "plucker",
            "vanishing", "rho", "dual-probe")


def argparse_parsers():
    """The argparse parser of every command, and its subparser per command."""
    parser = cli._build_parser()
    return parser, parser._subparsers._group_actions[0].choices


def test_help_is_the_argparse_parsers(capsys):
    parser, commands = argparse_parsers()
    assert tuple(commands) == COMMANDS
    for argv in (["--help"], ["-h"], ["--he"], ["-h", "rho"], ["--x", "-h"]):
        assert run(capsys, *argv) == (0, parser.format_help(), ""), argv
    for command in COMMANDS:
        for flag in ("--help", "-h", "--hel"):
            assert run(capsys, command, "--bogus", flag) == (
                0, commands[command].format_help(), ""), command
    # argparse fails before it reaches the help flag, or on a help flag
    # given a value
    for argv in (["rho", "--genus", "x", "-h"], ["bogus", "-h"],
                 ["rho", "--help=1"], ["-hx"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        one_json_error(err)


def test_front_end_calls_and_usage_errors(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "section", "degree": 2, "rank": 0,
                               "p": 3, "budget": 10000}))
    calls = ([], ["bogus"], ["--", "census"], ["--config", str(cfg), "census"],
             ["--config=%s" % cfg, "census"], ["--conf", str(cfg), "census"])
    got = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in got] == [2, 2, 2, 0, 0, 0]
    assert "dual-probe" in one_json_error(got[1][2])["error"]
    assert got[3] == got[4] == got[5] == run(capsys, *SECTION_CENSUS)


def test_flags_read_as_argparse_reads_them():
    # a unique prefix, the = form, a negative value, the last occurrence
    args = cli._parse(["rho", "--gen=1", "--rank", "-1", "--deg", "3",
                       "--degree", "2"])
    assert (args.command, args.genus, args.rank, args.degree,
            args.alphas, args.out) == ("rho", 1, -1, 2, None, None)
    assert args.func is cli.cmd_rho
    census = cli._parse(["census", "--budget", "9", "--exp"])
    assert (census.experiments, census.kind, census.workers) == (
        True, "standard", 1)
    for argv, error in ((["census", "--d", "1", "--budget", "1"], "ambiguous"),
                        (["rho", "--genus", "-x"], "expected one argument"),
                        (["census", "--budget", "1", "--exp=1"], "boolean"),
                        (["rho", "--genus", "0", "7"], "unrecognized"),
                        (["rho", "--genus=0"], "--rank, --degree")):
        with pytest.raises(cli._UsageError, match=error):
            cli._parse(argv)


def test_config_key_of_no_command_exits_2(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"fromat": "csv"}))
    code, out, err = run(capsys, "--config", str(cfg), *SECTION_CENSUS)
    assert code == 2 and out == ""
    assert "'fromat'" in one_json_error(err)["error"]
    # a key another command reads is accepted: one file serves several
    cfg.write_text(json.dumps({"format": "csv", "genus": 0, "alphas": "[]"}))
    code, out, _ = run(capsys, "--config", str(cfg), *SECTION_CENSUS)
    assert code == 0 and out.startswith("f_ranks,g_ranks,count")


def test_point_values_name_their_flag(capsys):
    for argv, flag in (
            (("vanishing", "--degree", "2", "--p", "5", "--basis",
              "[[1,0,0]]", "--point", "1.5"), "--point"),
            (PLUCKER + ("--points", "0,,1"), "--points")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert one_json_error(err)["error"].startswith(flag + " takes")


# --- fuzzing the JSON-valued flags ------------------------------------------

JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2, 5) | st.integers()
                | st.floats(allow_nan=False)
                | st.sampled_from(["Y", "Z", "inf", "Q", ""]) | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.sampled_from(["side", "point", "min", "x"]),
                          children, max_size=4)
        | st.fixed_dictionaries({"side": children, "point": children,
                                 "min": children})),
    max_leaves=12)
FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=150)


def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 2, 3, 4)
    if err:
        one_json_error(err)


@FUZZ
@given(JSON_VALUES)
def test_fuzz_enum_lls_constraints(value):
    code, err = run_quiet("enum-lls", "--degree", "2", "--rank", "0", "--p",
                          "2", "--budget", "1000", "--constraints",
                          json.dumps(value))
    assert_clean_exit(code, err)


@FUZZ
@given(JSON_VALUES)
def test_fuzz_rho_alphas(value):
    code, err = run_quiet("rho", "--genus", "0", "--rank", "1", "--degree",
                          "2", "--alphas", json.dumps(value))
    assert_clean_exit(code, err)



@FUZZ
@given(st.lists(st.integers(-6, 12) | st.just("inf") | JSON_SCALARS,
                max_size=8),
       st.integers(-4, 4))
def test_fuzz_plucker_points_and_genus(points, genus):
    argv = PLUCKER + ("--genus", str(genus))
    if points:
        argv += ("--points", ",".join(map(str, points)))
    code, err = run_quiet(*argv)
    assert_clean_exit(code, err)


CONFIG_KEYS = st.sampled_from(["genus", "rank", "degree", "alphas", "p",
                               "point", "format"])


@FUZZ
@given(st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=3))
def test_fuzz_config_values(config):
    flags = {"genus": "0", "rank": "1", "degree": "2", "p": "5", "point": "0"}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "c.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(config, fh)
        for command, names in (("rho", ("genus", "rank", "degree")),
                               ("vanishing", ("degree", "p", "point"))):
            argv = ["--config", path, command, "--out", out]
            for name in names:
                if name not in config:
                    argv += ["--" + name, flags[name]]
            if command == "vanishing":
                argv += ["--basis", "[[1,0,0]]"]
            code, err = run_quiet(*argv)
            assert_clean_exit(code, err)
            if command == "rho" and code == 0:
                with open(out) as fh:
                    rep = json.load(fh)
                assert all(type(rep[k]) is int for k in ("genus", "r", "d",
                                                         "rho"))


@FUZZ
@given(st.integers(-2, 7), st.integers(-2, 6), st.integers(-3, 8))
def test_fuzz_components_n2(dim, rank, d1):
    code, err = run_quiet("components-n2", "--dim", str(dim), "--rank",
                          str(rank), "--d1", str(d1), "--budget", "2000")
    assert_clean_exit(code, err)


ROW_LISTS = st.lists(st.lists(st.integers(-2, 4), max_size=4), max_size=3)


@FUZZ
@given(st.sampled_from(["reconstruct", "lift-crude"]),
       JSON_VALUES | ROW_LISTS, JSON_VALUES | ROW_LISTS)
def test_fuzz_aspect_rows(command, vy, vz):
    code, err = run_quiet(command, "--degree", "2", "--p", "2",
                          "--vy", json.dumps(vy), "--vz", json.dumps(vz))
    assert_clean_exit(code, err)


def evenly(*strategies):
    """Draw from each strategy with equal chance, however many branches it
    has (``a | b`` weighs each flattened branch alike)."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


@st.composite
def field_subspaces(draw):
    """A subspace of GF(p)^n, 1 <= n <= 5, of any rank, built from its
    canonical basis: pivot columns, then free entries right of each pivot."""
    p = draw(st.sampled_from([2, 3, 11, 101]))
    n = draw(st.integers(1, 5))
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    rows = []
    for pc in pivots:
        row = [0] * n
        row[pc] = 1
        for c in range(pc + 1, n):
            if c not in pivots:
                row[c] = draw(st.integers(0, p - 1))
        rows.append(row)
    return Subspace.from_rows(PrimeField(p), n, rows)


LISTING_VALUES = evenly(
    field_subspaces(),
    st.lists(st.integers(), max_size=9).map(tuple),
    # a bool among ints: json.dumps writes true; ten items, and no other
    # int below 2, so no such tuple equals one with another text
    st.tuples(st.booleans(), *[st.integers(2, 99)] * 9),
    field_subspaces().map(Subspace.to_dual),
    st.sampled_from([True, False, None, 0, 1, "", "two\nlines"]),
    st.integers() | st.text(max_size=3))
# one row template each for enum-lls, fr-image, and slots at three depths
LISTING_TEMPLATES = (
    {"d": 2, "p": 3, "point": {"spaces": ["\0"] * 3}},
    [["\0", "\0"], "\0"],
    {"z": ["\0"], "a": ["\0", {"b": ["\0", "\0"], "c": [["\0"]]}]})


def _filled(template, values):
    """``template`` with its "\\0" items replaced, in the order json.dumps
    writes them (keys sorted), by the items of the iterator ``values``."""
    if template == "\0":
        return next(values)
    if isinstance(template, dict):
        return {k: _filled(template[k], values) for k in sorted(template)}
    if isinstance(template, list):
        return [_filled(item, values) for item in template]
    return template


@FUZZ
@given(st.sampled_from(LISTING_TEMPLATES),
       st.lists(LISTING_VALUES, min_size=1, max_size=6), st.data())
def test_listing_writer_matches_json_dumps(template, pool, data):
    # rows drawn from a small pool, so that values repeat across rows and
    # slots, and template shapes meet json.dumps values in one slot
    width = json.dumps(template).count("\\u0000")
    rows = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=width,
                                       max_size=width), max_size=8))
    report = {"schema_version": 1, "s": "two\nlines", "count": len(rows)}
    want = json.dumps(
        dict(report, listing=[_filled(template, iter(row)) for row in rows]),
        sort_keys=True, indent=2, default=lambda v: v.as_dict())
    assert listing_text(report, "listing", template, rows) == want


def test_listing_writer_tells_equal_values_of_two_types_apart():
    # True == 1 == 1.0 and False == 0, but json.dumps writes each its own
    # way; a bool among ints takes json.dumps, and a list the tuple's way
    rows = [(v,) for v in (1, True, 1.0, 0, False, (True, 2), [3, 4], (3, 4),
                           [], ())]
    report = {"count": len(rows)}
    want = json.dumps(dict(report, listing=[[v] for (v,) in rows]),
                      sort_keys=True, indent=2)
    assert listing_text(report, "listing", ["\0"], rows) == want


def test_listing_writer_rejects_a_mark_under_a_key():
    # a dict value would be written with its key text as indentation
    with pytest.raises(ValueError, match="list item"):
        listing_text({"count": 1}, "listing", {"z": "\0"}, [(1,)])


# degree-2 bases: lists of rows of three small ints
DEGREE2_ROWS = st.lists(st.lists(st.integers(-2, 6), min_size=3, max_size=3),
                        max_size=4)


@FUZZ
@given(evenly(DEGREE2_ROWS, JSON_VALUES, ROW_LISTS),
       evenly(st.integers(-6, 12), st.just("inf"), JSON_SCALARS))
def test_fuzz_vanishing_basis_and_point(basis, point):
    code, err = run_quiet("vanishing", "--degree", "2", "--p", "5",
                          "--basis", json.dumps(basis), "--point", str(point))
    assert_clean_exit(code, err)


@FUZZ
@given(evenly(DEGREE2_ROWS, JSON_VALUES, ROW_LISTS))
def test_fuzz_plucker_basis(basis):
    code, err = run_quiet("plucker", "--degree", "2", "--p", "5", "--basis",
                          json.dumps(basis))
    assert_clean_exit(code, err)


def run_quiet_with_file(content, *argv):
    """run_quiet with the JSON ``content`` in a temporary file, whose path
    takes the place of ``"FILE"`` in argv."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(content, fh)
        return run_quiet(*[path if a == "FILE" else a for a in argv])


VALID_CHAIN = chain_dict(2, [1, 0, 0, 0], [0, 0, 0, 1])  # the cross chain
MAP_ENTRIES = evenly(st.lists(st.integers(-2, 4), min_size=4, max_size=4),
                     st.lists(st.integers(-2, 4) | JSON_SCALARS, max_size=5))
SMALL = evenly(st.integers(-1, 3), JSON_SCALARS)


def _times(m, n):
    """Product of 2x2 matrices held as flat row-major lists."""
    return [m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3]]


def _conjugated_chain(p, a, b):
    """The cross chain f = diag(1, 0), g = diag(0, 1) carried to B f adj(A)
    and A g adj(B), a valid chain when A and B are invertible mod p."""
    f, g = [1, 0, 0, 0], [0, 0, 0, 1]

    def adj(m):
        return [m[3], -m[1], -m[2], m[0]]

    return chain_dict(p, [x % p for x in _times(_times(b, f), adj(a))],
                      [x % p for x in _times(_times(a, g), adj(b))])


def _invertible_2x2(p):
    return st.lists(st.integers(0, p - 1), min_size=4, max_size=4).filter(
        lambda m: (m[0] * m[3] - m[1] * m[2]) % p)


CHAIN_FILES = evenly(
    st.sampled_from([2, 3]).flatmap(
        lambda p: st.builds(_conjugated_chain, st.just(p), _invertible_2x2(p),
                            _invertible_2x2(p))),
    st.builds(chain_dict, evenly(st.sampled_from([2, 3, 4]), JSON_SCALARS),
              MAP_ENTRIES, MAP_ENTRIES, SMALL, SMALL),
    st.builds(lambda key, value: dict(VALID_CHAIN, **{key: value}),
              st.sampled_from(sorted(VALID_CHAIN)), JSON_VALUES),
    JSON_VALUES)


@FUZZ
@given(CHAIN_FILES, st.booleans())
def test_fuzz_census_chain_file(content, experiments):
    argv = ("census", "--kind", "file", "--chain-file", "FILE",
            "--budget", "100") + (("--experiments",) if experiments else ())
    assert_clean_exit(*run_quiet_with_file(content, *argv))


def _line_level(a, b):
    return {"ring": {"p": 2, "dual": False}, "ambient_dim": 2, "rank": 1,
            "basis": [[a, b]]}


# a well-formed level of the GF(2)^2 chain below, or one with a field replaced
LINE_LEVELS = st.builds(_line_level, st.integers(-2, 4), st.integers(-2, 4))
LEVELS = evenly(
    LINE_LEVELS,
    st.builds(lambda level, key, value: dict(level, **{key: value}),
              LINE_LEVELS, st.sampled_from(sorted(_line_level(0, 1))),
              evenly(JSON_VALUES, ROW_LISTS)))
POINT_FILES = evenly(
    st.fixed_dictionaries({"spaces": st.lists(LEVELS, min_size=2,
                                              max_size=2)}),
    st.fixed_dictionaries({"spaces": st.lists(evenly(LEVELS, JSON_VALUES),
                                              max_size=3)}),
    JSON_VALUES)


@FUZZ
@given(POINT_FILES)
def test_fuzz_tangent_point_file(content):
    assert_clean_exit(*run_quiet_with_file(
        content, "tangent", "--kind", "standard", "--n", "2", "--dim", "2",
        "--d1", "1", "--rank", "1", "--p", "2", "--budget", "1000",
        "--point-file", "FILE"))


# --- the whole command line, fuzzed from the command table ------------------

STRAY_TOKENS = ["--bogus", "-x", "--", "3", "-1", "--=1", "-", "x y",
                "-1e3", ""]
INT_TEXTS = ["-1", "0", "1", "2", " 2", "+1", "1_0", "\u0661"] * 3 + [
    "x", "1.5", "", "-x", "-.5", "-1e3", "--"]
STR_TEXTS = ["a", "-1", "-x y", "", "[[1,0,0]]"] * 3 + ["-x", "--"]


def flag_tokens(flag, spec, values):
    """``flag`` as argv tokens: its name (or a prefix of it, which may be
    ambiguous) and a value from ``values(flag, spec)``, as the next token or
    after "=", or now and then no value."""
    names = st.sampled_from([flag] * 9 + [flag[:k] for k in range(3, len(flag))])
    if spec.get("action"):
        return names.map(lambda name: [name])
    return st.builds(
        lambda name, value, how: {"next": [name, value], "none": [name],
                                  "=": [name + "=" + value]}[how],
        names, st.sampled_from(values(flag, spec)),
        st.sampled_from(["next"] * 15 + ["="] * 4 + ["none"]))


@st.composite
def argvs(draw, command, values):
    """An argv of ``command``: each flag left out, given once or twice (a
    required flag mostly once), in any order; now and then a stray token
    among them or before the command."""
    pieces = []
    for flag, spec in cli._COMMANDS[command][1]:
        times = draw(st.sampled_from([1] * 6 + [0, 2] if spec.get("required")
                                     else [0, 1, 0, 2]))
        pieces += [draw(flag_tokens(flag, spec, values)) for _ in range(times)]
    pieces = draw(st.permutations(pieces))
    if draw(st.sampled_from([False] * 9 + [True])):
        pieces.insert(draw(st.integers(0, len(pieces))),
                      [draw(st.sampled_from(STRAY_TOKENS))])
    head = draw(st.sampled_from([[]] * 27 + [["--bogus"], ["-1"], ["x"]]))
    return head + [command] + sum(pieces, [])


def any_values(flag, spec):
    """Valid and invalid values of every kind, many of them edge cases of
    argparse's rules (a negative number, a space, an "int" with "_")."""
    if spec.get("action"):
        return [None]
    if "choices" in spec:
        return spec["choices"] * 3 + ["bogus", "", "-1"]
    return INT_TEXTS if spec.get("type") is int else STR_TEXTS


ORACLE = settings(derandomize=True, database=None, deadline=None,
                  max_examples=120)


@pytest.mark.parametrize("command", COMMANDS)
def test_parse_reads_argv_as_the_argparse_parser(command):
    """``_parse`` against the argparse parser built from the same table, on
    argv without a help flag or a config file: where argparse accepts, the
    same value for every flag (or exit 2 where the value is below the limit
    of --point-index or --workers); where it rejects, exit 2 with one JSON
    line.  A "=--" value is left out: argparse drops it and stores []."""
    parser = cli._build_parser()

    @ORACLE
    @given(argvs(command, any_values))
    def check(argv):
        assume(not any(token.endswith("=--") for token in argv))
        try:
            want = vars(parser.parse_args(argv))
            want.pop("config")
            if want.get("point_index", 0) < 0 or want.get("workers", 1) < 1:
                want = None
        except cli._UsageError:
            want = None
        if want is None:
            with pytest.raises(cli._UsageError):
                cli._parse(argv)
            code, err = run_quiet(*argv)
            assert code == 2, argv
            one_json_error(err)
        else:
            assert vars(cli._parse(argv)) == want, argv

    check()


TINY_INTS = {"--degree": ["2", "1", "2", "0"], "--p": ["2", "3"],
             "--rank": ["0", "1", "0", "-1"], "--budget": ["200"] * 3 + ["0"]}
TINY_TEXTS = {"--basis": ["[[1,0,0]]", "[[0,1,1],[1,0,0]]", "[[1,0]]", "x"],
              "--vy": ["[[0,1,0]]", "[[0,0,1]]", "[]"],
              "--vz": ["[[0,1,0]]", "[[0,1,1]]", "x"],
              "--constraints": ["[]", "x", "[{}]"],
              "--alphas": ["[]", "[[0,1]]", "x"],
              "--points": ["0,1,inf", "0,,1", "1.5", ""],
              "--point": ["0", "inf", "1.5"],
              "--chain-file": ["chain.json", "missing.json"],
              "--point-file": ["missing.json", "chain.json"], "--out": ["out"]}
WRONG_JSON = [1.5, True, None, [], "x", {}]


def tiny_values(flag, spec):
    """Values that keep every run tiny: degree <= 2, p in {2, 3}, budget
    <= 200, other integers in [-1, 2]; and some invalid ones."""
    if spec.get("action"):
        return [None]
    if "choices" in spec:
        return spec["choices"] * 4 + ["bogus"]
    if spec.get("type") is int:
        return TINY_INTS.get(flag, ["0", "1", "2"] * 2 + ["-1"]) * 4 + [
            "x", "1.5"]
    return TINY_TEXTS[flag]


def config_strategy(command):
    """A config object: keys of the command's flags, of another command's
    and of none, with tiny values or values of the wrong type."""
    flags = cli._COMMANDS[command][1]
    keys = {"fromat": ["csv"], "genus": ["0"], "alphas": ["[]"]}
    keys.update((flag[2:].replace("-", "_"), tiny_values(flag, spec))
                for flag, spec in flags)

    def json_values(texts):
        if texts == [None]:  # a store_true flag
            return st.sampled_from([True, False] + WRONG_JSON)
        ints = [int(t) for t in texts if t.lstrip("-").isdigit()]
        return st.sampled_from((texts + ints) * 3 + WRONG_JSON)

    return st.none() | st.lists(
        st.sampled_from(sorted(keys)), unique=True, max_size=3).flatmap(
        lambda picked: st.fixed_dictionaries(
            {key: json_values(keys[key]) for key in picked}))


FUZZ_ARGV = settings(derandomize=True, database=None, deadline=None,
                     max_examples=60)


@pytest.mark.parametrize("command", COMMANDS)
def test_fuzz_whole_command_line(command):
    """Every argv of tiny inputs, from flags and a config file alike, ends
    in a documented exit code and at most one JSON line on stderr."""
    @FUZZ_ARGV
    @given(argvs(command, tiny_values), config_strategy(command))
    def check(argv, config):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # every path a flag or the config names is in it
            try:
                with open("chain.json", "w") as fh:
                    json.dump(VALID_CHAIN, fh)
                if config is not None:
                    with open("c.json", "w") as fh:
                        json.dump(config, fh)
                    argv = ["--config", "c.json"] + argv
                code, err = run_quiet(*argv)
            finally:
                os.chdir(cwd)
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err
        if err:
            one_json_error(err)

    check()
