"""Batch command-line front end.

Every subcommand reads flags (optionally seeded from a JSON config file;
flags win), runs one experiment, and writes a schema-versioned JSON or CSV
report.  Identical inputs produce byte-identical reports.  Exit codes:
0 success, 2 invalid input, 3 enumeration budget exceeded, 4 a verification
command found a property violation.  ``_parse`` reads the flags straight
from the command table, ``_COMMANDS``, as the argparse parser built from it
would (``--flag=value``, a unique prefix, the last occurrence winning); only
an argv that names the help flag builds that parser, which prints the help.

The CLI checks its flags' types and the limits of ``--point-index`` and
``--workers``, but not a budget or the shape of an input the library reads:
it only decodes the JSON-valued flags (``--constraints``, ``--alphas``,
``--basis``, ``--vy``, ``--vz``) and the chain and point files, and passes
them on.  The library function that reads each one checks it and raises
ValueError, which exits 2.

Reports are written by ``json.dumps(report, sort_keys=True, indent=2)``,
except the long listings of ``enum-lls`` (points) and ``fr-image``
(preimage counts): ``_listing_json_text`` renders one entry with placeholder
values once and writes each entry as that template joined with the texts
of its values (``_value_text``), byte for byte what ``json.dumps`` would
write, as ASCII bytes in chunks that ``_emit`` writes as they come, so the
report text is never held whole.  ``enum-lls`` takes its whole point stream
before writing anything, so a budget exit writes no report.  A call runs
with the collector's generation-0 threshold at 100,000 (``main``), since it
frees little before it exits.

A call imports no module it does not run: ``--format csv`` imports ``csv``
on first use (``_to_csv``), help alone imports ``argparse`` (so ``gettext``
and ``locale``), and the report records load no ``dataclasses``.
"""

from __future__ import annotations

import gc
import io
import json
import re
import sys
from contextlib import nullcontext
from functools import partial
from itertools import islice
from types import SimpleNamespace
from typing import Optional

from . import chains, ramification, series
from .fields import PrimeField
from .linalg import BudgetError, Subspace

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4

SCHEMA_VERSION = 1
_json_text = partial(json.dumps, sort_keys=True, indent=2)


def _emit(report: dict, args, listing=None) -> None:
    """Write ``report`` and a newline to ``--out`` or stdout: as CSV if
    ``--format csv`` asks, else by ``_json_text`` or, given a ``listing``
    (name, template, rows), chunk by chunk by ``_listing_json_text``."""
    out = getattr(args, "out", None)
    if listing:
        chunks, end = _listing_json_text(report, *listing), b"\n"
        if not out:
            chunks, end = (chunk.decode() for chunk in chunks), "\n"
    elif getattr(args, "format", "json") == "csv":
        chunks, end = [_to_csv(report)], ""
    else:
        chunks, end = [_json_text(report)], "\n"
    with (open(out, "wb" if listing else "w") if out
          else nullcontext(sys.stdout)) as fh:
        fh.writelines(chunks)
        fh.write(end)


_MARK = "\0"  # stands for a row, then for each value
_QUOTED = '"\\u0000"'  # json.dumps(_MARK)
_CHUNK = 1 << 17  # a listing hands on its text once it holds this many bytes


def _listing_json_text(report: dict, name: str, template, rows):
    """``_json_text`` of ``report`` with ``report[name]`` a list of copies of
    ``template``, its list items "\\0" filled, in order, with the values of
    one of ``rows`` (written by their ``as_dict`` if they have one), in
    ASCII bytes chunks of ``_CHUNK`` bytes or more but the last.  A distinct
    value is written and encoded once per slot indentation and text after
    it; values must be hashable or lists of hashable items, and equal ones
    of one type must write the same JSON; a subspace is keyed by identity
    (``rows`` keeps it alive).  A mark with other text before it on its
    line raises ValueError: a value's lines are indented as its mark's."""
    if not rows:
        yield _json_text(dict(report, **{name: []})).encode()
        return
    head, tail = _json_text(dict(report, **{name: [_MARK]})).split(_QUOTED)
    pad = "\n" + head.rsplit("\n", 1)[1]
    first, *pieces = _json_text(template).replace("\n", pad).split(_QUOTED)
    slots, by, shapes = [], {}, {}
    for before, piece in zip([first] + pieces, pieces):
        slot_pad = "\n" + before.rsplit("\n", 1)[1]
        if not slot_pad.isspace():
            raise ValueError("a template mark must be a list item, not %r"
                             % (slot_pad[1:] + _QUOTED))
        slots.append((by.setdefault((slot_pad, piece), {}), slot_pad, piece))
    later, first = ("," + pad + first).encode(), first.encode()
    chunk = bytearray(head.encode())
    for k, row in enumerate(rows):
        chunk += later if k else first
        for value, (known, slot_pad, piece) in zip(row, slots):
            # by type too, since True == 1 writes "true" and 1 writes "1"
            cls = value.__class__
            key = id(value) if cls is Subspace else (
                cls, tuple(value) if cls is list else value)
            if key not in known:
                known[key] = (_value_text(value, slot_pad, shapes)
                              + piece).encode()
            chunk += known[key]
        if len(chunk) >= _CHUNK:
            yield chunk
            chunk = bytearray()
    chunk += tail.encode()
    yield chunk


def _value_text(value, pad: str, shapes: dict) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, with ``default``
    ``as_dict``, each line after the first led by ``pad``.

    Two shapes are filled into a %-format cached in ``shapes`` per (pad,
    shape), the entries as ints: a subspace over a prime field, per (ring,
    ambient dimension, rank), and a flat tuple or list of ints (``bool``
    excluded), per length.  Any other value is encoded by ``json.dumps``.
    """
    cls = value.__class__
    if cls is Subspace and not value.ring.dual:
        shape = (pad, value.ring, value.ambient_dim, value.dim)
        form = shapes.get(shape)
        if form is None:
            spec = value.as_dict()
            spec["basis"] = [[_MARK] * value.ambient_dim] * value.dim
            form = shapes[shape] = _format(spec, pad)
        return form % value.basis.entries
    if (cls is tuple or cls is list) and all(type(x) is int for x in value):
        shape = (pad, len(value))
        form = shapes.get(shape)
        if form is None:
            form = shapes[shape] = _format([_MARK] * len(value), pad)
        return form % tuple(value)
    return json.dumps(value, sort_keys=True, indent=2,
                      default=lambda v: v.as_dict()).replace("\n", pad)


def _format(spec, pad: str) -> str:
    """The %-format of ``spec`` written as ``_value_text`` writes it, with
    one %d for each "\\0" string."""
    text = json.dumps(spec, sort_keys=True, indent=2).replace("\n", pad)
    return "%d".join(text.replace("%", "%%").split(_QUOTED))


def _to_csv(report: dict) -> str:
    """A census or vanishing report, the two that take ``--format csv``."""
    import csv  # only this format uses it: a JSON call never loads it

    buf = io.StringIO()
    writer = csv.writer(buf)
    if "signatures" in report:
        writer.writerow(["f_ranks", "g_ranks", "count"])
        for sig, cnt in report["signatures"]:
            writer.writerow([" ".join(map(str, sig[0])),
                             " ".join(map(str, sig[1])), cnt])
    else:
        writer.writerow(["point", "j", "a_j", "alpha_j"])
        for j, (a, al) in enumerate(zip(report["vanishing"],
                                        report["ramification"])):
            writer.writerow([report["point"], j, a, al])
    return buf.getvalue()


def _fail(message: str, code: int, **extra) -> int:
    sys.stderr.write(json.dumps(dict(extra, error=message), sort_keys=True) + "\n")
    return code


class _UsageError(ValueError):
    """A malformed command line; reported like any other invalid input."""


class _InvalidChain(ValueError):
    def __init__(self, violations: list):
        super().__init__("the chain violates the linked-chain axioms")
        self.violations = violations


def _chain_from_args(args, validate: bool = True) -> chains.LinkedChain:
    """The chain the flags describe.  A chain read from a file is checked
    against the axioms first (unless ``validate`` is off), since the
    enumeration and the per-point analysis assume them."""
    kind = args.kind
    if kind == "standard":
        return chains.make_standard_chain(args.n, args.dim, args.d1, args.s,
                                          args.p, r=args.rank)
    if kind == "section":
        series._require_series_rank(args.rank)
        return series.build_section_chain(args.degree, args.p, args.rank + 1)
    if kind == "file":
        if not args.chain_file:
            raise ValueError("--kind file needs --chain-file")
        with open(args.chain_file) as fh:
            chain = chains.LinkedChain.from_dict(json.load(fh))
        if validate:
            report = chains.validate_chain(chain)
            if not report.ok:
                raise _InvalidChain(report.violations)
        return chain
    raise ValueError("unknown chain kind %r" % kind)


def _parse_subspace(text: str, p: int, ambient: int) -> Subspace:
    return Subspace.from_rows(PrimeField(p), ambient, json.loads(text))


def _point(text: str, flag: str):
    """The point ``text`` of ``flag`` names: an integer, or ``inf``."""
    try:
        return text if text == ramification.INFINITY else int(text)
    except ValueError:
        raise ValueError("%s takes integers and inf, got %r"
                         % (flag, text)) from None


def cmd_validate_chain(args) -> int:
    chain = _chain_from_args(args, validate=False)
    report = chain.as_dict()
    report.update(chains.validate_chain(chain).as_dict())
    report["schema_version"] = SCHEMA_VERSION
    _emit(report, args)
    return EXIT_OK if report["ok"] else EXIT_VIOLATION


def cmd_census(args) -> int:
    if args.experiments and args.format == "csv":
        raise ValueError("--format csv has no column for the signature graph "
                         "that --experiments attaches; use --format json")
    chain = _chain_from_args(args)
    rep = chains.census(chain, budget=args.budget,
                        experiments=args.experiments)
    _emit(rep.as_dict(), args)
    return EXIT_OK


def cmd_tangent(args) -> int:
    chain = _chain_from_args(args)
    if args.point_file:   # checked by the analysis: shape, then linkage
        with open(args.point_file) as fh:
            pt = chains.ChainPoint.from_dict(json.load(fh))
    else:
        pts = chains.enumerate_points(chain, budget=args.budget)
        pt = next(islice(pts, args.point_index, None), None)
        if pt is None:
            raise ValueError("point index %d out of range" % args.point_index)
    sig, tdim = chains._point_analysis(chain, pt)
    report = {"schema_version": SCHEMA_VERSION, "chain": chain.as_dict(),
              "point": pt.as_dict(), "tangent_dimension": tdim,
              "signature": sig.as_dict(),
              "smooth_floor": chain.r * (chain.d - chain.r)}
    _emit(report, args)
    return EXIT_OK


def cmd_components_n2(args) -> int:
    d2 = args.dim - args.d1
    expected = chains.expected_component_count_n2(args.dim, args.rank,
                                                  args.d1, d2)
    admissible = list(chains.admissible_signatures_n2(args.dim, args.rank,
                                                      args.d1, d2))
    chain = chains.make_standard_chain(2, args.dim, args.d1, 0, args.p,
                                       r=args.rank)
    rep = chains.census(chain, budget=args.budget)
    observed = sorted({sig[0][0] for sig in rep.signatures})
    report = {"schema_version": SCHEMA_VERSION, "d": args.dim, "r": args.rank,
              "d1": args.d1, "d2": d2, "p": args.p,
              "expected": expected, "admissible_f_ranks": admissible,
              "observed": len(observed), "observed_f_ranks": observed,
              "match": observed == admissible}
    _emit(report, args)
    return EXIT_OK if report["match"] else EXIT_VIOLATION


def cmd_enum_lls(args) -> int:
    constraints = json.loads(args.constraints) if args.constraints else None
    rows = [lsp.point.spaces for lsp in series.enumerate_limit_series(
        args.degree, args.rank, args.p, constraints=constraints,
        budget=args.budget)]
    report = {"schema_version": SCHEMA_VERSION, "d": args.degree,
              "r": args.rank, "q": args.p, "count": len(rows)}
    point = {"d": args.degree, "p": args.p,
             "point": {"spaces": ["\0"] * (args.degree + 1)}}
    _emit(report, args, ("points", point, rows))
    return EXIT_OK


def cmd_fr_image(args) -> int:
    rep = series.fr_image_report(args.degree, args.rank, args.p,
                                 budget=args.budget)
    rows = [(*key, cnt) for key, cnt in sorted(rep.preimage_counts.items())]
    rep.preimage_counts = {}  # the listing writes them, from ``rows``
    _emit(rep.as_dict(), args,
          ("preimage_counts", [["\0", "\0"], "\0"], rows))
    return EXIT_OK if rep.equal else EXIT_VIOLATION


def _pair_from_args(args) -> series.EHPair:
    ambient = args.degree + 1
    vy = _parse_subspace(args.vy, args.p, ambient)
    vz = _parse_subspace(args.vz, args.p, ambient)
    return series.EHPair.from_subspaces(vy, vz)


def cmd_pair(lift, args) -> int:
    """The point that ``lift`` (``series.reconstruct_refined`` for
    ``reconstruct``, ``series.lift_crude`` for ``lift-crude``) builds over
    the pair of the flags."""
    pair = _pair_from_args(args)
    report = {"schema_version": SCHEMA_VERSION, "pair": pair.as_dict(),
              "point": lift(pair).as_dict()}
    _emit(report, args)
    return EXIT_OK


def cmd_plucker(args) -> int:
    v = _parse_subspace(args.basis, args.p, args.degree + 1)
    points = None
    if args.points is not None:
        if not args.points:
            raise ValueError("--points must name at least one point")
        points = [_point(p, "--points") for p in args.points.split(",")]
    cert = ramification.plucker_check(v, genus=args.genus, points=points)
    _emit(cert.as_dict(), args)
    return EXIT_OK


def cmd_vanishing(args) -> int:
    v = _parse_subspace(args.basis, args.p, args.degree + 1)
    data = ramification.vanishing_sequence(v, _point(args.point, "--point"))
    report = data.as_dict()
    report["schema_version"] = SCHEMA_VERSION
    _emit(report, args)
    return EXIT_OK


def cmd_rho(args) -> int:
    alphas = json.loads(args.alphas) if args.alphas else []
    value = ramification.rho(args.genus, args.rank, args.degree, alphas)
    report = {"schema_version": SCHEMA_VERSION, "genus": args.genus,
              "r": args.rank, "d": args.degree, "alphas": alphas, "rho": value}
    _emit(report, args)
    return EXIT_OK


def cmd_dual_probe(args) -> int:
    rep = series.dual_probe(args.p)
    _emit(rep.as_dict(), args)
    ok = (rep.linked_over_dual and rep.first_order_sum >= rep.d - 1)
    return EXIT_OK if ok else EXIT_VIOLATION


# The flags each command takes, in help order: (flag, add_argument keywords).
_INT = dict(type=int, required=True)
_CHAIN = (
    ("--kind", dict(choices=["standard", "section", "file"],
                    default="standard",
                    help="standard projection chain, nodal-curve section "
                         "chain, or a chain serialized to JSON")),
    ("--n", dict(type=int, default=2, help="levels (standard kind)")),
    ("--dim", dict(type=int, default=2, help="ambient dimension "
                   "(standard kind)")),
    ("--d1", dict(type=int, default=1,
                  help="forward projection rank (standard kind, s = 0)")),
    ("--s", dict(type=int, default=0, help="the chain scalar")),
    ("--p", dict(type=int, default=2, help="field characteristic")),
    ("--degree", dict(type=int, default=2,
                      help="curve degree (section kind)")),
    ("--rank", dict(type=int, default=1,
                    help="subspace dimension (standard kind) or series "
                         "projective dimension r (section kind)")),
    ("--chain-file", dict(help="JSON chain (file kind)")))
_BUDGET = (("--budget", dict(type=int, required=True,
                             help="max candidate subspaces to examine")),)
_OUT = (("--out", dict(help="write the report here instead of stdout")),)
_FORMAT = (("--format", dict(choices=["json", "csv"], default="json")),)
_PAIR = (("--degree", _INT), ("--p", _INT),
         ("--vy", dict(required=True, help="JSON rows of the y-aspect basis")),
         ("--vz", dict(required=True, help="JSON rows of the z-aspect basis")))

# name -> (the function that runs the command, its flags)
_COMMANDS = {
    "validate-chain": (cmd_validate_chain, _CHAIN + _OUT),
    "census": (cmd_census, _CHAIN + _BUDGET + _OUT + _FORMAT + (
        ("--workers", dict(type=int, default=1, help="accepted for "
                           "compatibility; the census is serial")),
        ("--experiments", dict(action="store_true", default=False,
                               help="attach the signature-adjacency graph")))),
    "tangent": (cmd_tangent, _CHAIN + _BUDGET + _OUT + (
        ("--point-index", dict(type=int, default=0, help="index into the "
                               "deterministic point stream")),
        ("--point-file", dict(help="JSON chain point")))),
    "components-n2": (cmd_components_n2, _BUDGET + _OUT + (
        ("--dim", _INT), ("--rank", _INT), ("--d1", _INT),
        ("--p", dict(type=int, default=2)))),
    "enum-lls": (cmd_enum_lls, _BUDGET + _OUT + (
        ("--degree", _INT), ("--rank", _INT), ("--p", _INT),
        ("--constraints", dict(help="JSON list of vanishing bounds")))),
    "fr-image": (cmd_fr_image, _BUDGET + _OUT + (
        ("--degree", _INT), ("--rank", _INT), ("--p", _INT))),
    "reconstruct": (partial(cmd_pair, series.reconstruct_refined),
                    _OUT + _PAIR),
    "lift-crude": (partial(cmd_pair, series.lift_crude), _OUT + _PAIR),
    "plucker": (cmd_plucker, _OUT + (
        ("--degree", _INT), ("--genus", dict(type=int, default=0)),
        ("--p", _INT), ("--basis", dict(required=True,
                                        help="JSON coefficient rows")),
        ("--points", dict(help="comma list of points, e.g. 0,1,inf "
                          "(default: all rational points and inf)")))),
    "vanishing": (cmd_vanishing, _OUT + _FORMAT + (
        ("--degree", _INT), ("--p", _INT), ("--basis", dict(required=True)),
        ("--point", dict(required=True, help="a field value or inf")))),
    "rho": (cmd_rho, _OUT + (
        ("--genus", _INT), ("--rank", _INT), ("--degree", _INT),
        ("--alphas", dict(help="JSON list of ramification sequences")))),
    "dual-probe": (cmd_dual_probe, _OUT + (("--p", _INT),)),
}


def _build_parser():
    """The argparse parser of ``_COMMANDS``, which prints the help."""
    import argparse  # help alone uses it: no other call loads it

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = Parser(
        prog="lgseries",
        description="Deterministic censuses and certificates for linked "
                    "subspace chains and nodal-curve limit linear series.")
    parser.add_argument("--config", help="JSON file of flag defaults "
                        "(explicit flags override it)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _flag(token: str, table: dict):
    """As argparse reads ``token`` against ``table``: None for a value, else
    the flag it names or uniquely begins (None if none) and its "=" text."""
    if token[:1] != "-" or token == "-":
        return None
    if token in table:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in table:
        return head, value
    if token[1] == "-" and token != "--":
        found = [flag for flag in table if flag.startswith(head)]
        if found[1:]:
            raise _UsageError("%s is ambiguous: %s" % (head, ", ".join(found)))
        if found:
            return found[0], value if eq else None
    # argparse's rule: a negative number, or a token with a space, is a value
    if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def _value(flag: str, spec: dict, value, key: Optional[str] = None):
    """``value`` as ``flag`` takes it: a string from the command line, or
    the JSON value of config ``key``, which may also be an int or a bool."""
    if spec.get("action"):
        ok, want = type(value) is bool, "a JSON boolean (a bare flag)"
    elif "choices" in spec:
        ok, want = value in spec["choices"], "one of %s" % spec["choices"]
    elif spec.get("type") is int:
        try:  # a bool, a float or a list stays as it is, and fails
            value = int(value) if type(value) is str else value
        except ValueError:
            pass
        ok, want = type(value) is int, "an integer"
    else:
        ok, want = type(value) is str, "a string"
    if not ok:
        where = "config %r for %s" % (key, flag) if key else flag
        raise _UsageError("%s must be %s, got %r" % (where, want, value))
    return value


def _parse(argv: list) -> SimpleNamespace:
    """``command``, ``func`` and one attribute per flag, read as the parser
    of ``_build_parser()`` reads ``argv``, which prints the help (raising
    SystemExit) if ``argv`` names its help flag.  Raises _UsageError."""
    for token in argv:  # argparse reads these as its help flag
        head = token.partition("=")[0]
        if token[:2] == "-h" or len(head) > 2 and "--help".startswith(head):
            _build_parser().parse_args(argv)  # prints the help, or fails
    table, name, given, at = {"--config": {}, "--help": None}, None, {}, 0
    while at < len(argv):
        token, at = argv[at], at + 1
        found = _flag(token, table)
        if found is None and name is None:
            if token not in _COMMANDS:
                raise _UsageError("no command %r; choose from %s"
                                  % (token, ", ".join(_COMMANDS)))
            name, (func, flags) = token, _COMMANDS[token]
            table = dict(flags, **{"--help": None})
            continue
        flag, value = found or (None, None)  # a stray value names no flag
        if flag is None:
            raise _UsageError("unrecognized arguments: %s" % token)
        if value is None and table[flag].get("action"):
            value = True  # and --experiments=x fails in _value
        elif value is None:
            if at == len(argv) or _flag(argv[at], table) is not None:
                raise _UsageError("argument %s: expected one argument" % flag)
            value, at = argv[at], at + 1
        given[flag] = _value(flag, table[flag], value)
    if name is None:
        raise _UsageError("missing the command")
    config = _load_config(given.pop("--config")) if "--config" in given else {}
    args = SimpleNamespace(command=name, func=func)
    for flag, spec in flags:
        dest = flag[2:].replace("-", "_")
        if flag not in given and dest in config:
            given[flag] = config[dest]
        setattr(args, dest, given.get(flag, spec.get("default")))
    missing = [f for f, s in flags if s.get("required") and f not in given]
    if missing:
        raise _UsageError("missing required flags: %s" % ", ".join(missing))
    for flag, least in (("--point-index", 0), ("--workers", 1)):
        if given.get(flag, least) < least:
            raise _UsageError("%s must be an integer >= %d, got %d"
                              % (flag, least, given[flag]))
    return args


def _load_config(path: str) -> dict:
    """The flag defaults at ``path``, keyed by the flags of any command, each
    value checked by ``_value`` against every flag of its name, whichever
    command runs and whatever the command line overrides."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _UsageError("cannot read config: %s" % exc)
    if not isinstance(config, dict):
        raise _UsageError("cannot read config: %s is not a JSON object" % path)
    named = [(flag[2:].replace("-", "_"), flag, spec)
             for _, flags in _COMMANDS.values() for flag, spec in flags]
    stray = set(config).difference(key for key, _, _ in named)
    if stray:
        raise _UsageError("config key %r is no command's flag" % min(stray))
    return {key: _value(flag, spec, config[key], key)
            for key, flag, spec in named if key in config}


def main(argv: Optional[list] = None) -> int:
    # a call allocates many objects and frees few before it exits, so a
    # generation-0 collection every few hundred allocations mostly rescans
    # live objects; the caller's thresholds are back when main returns
    thresholds = gc.get_threshold()
    gc.set_threshold(100_000, *thresholds[1:])
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    finally:
        gc.set_threshold(*thresholds)


def _run(argv: list) -> int:
    try:
        args = _parse(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except BudgetError as exc:
        return _fail(str(exc), EXIT_BUDGET)
    except _InvalidChain as exc:
        return _fail(str(exc), EXIT_INVALID, violations=exc.violations)
    except (ValueError, OSError, KeyError) as exc:
        return _fail(str(exc), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
