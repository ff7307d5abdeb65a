"""The README's examples run as written: the library tour gives the values
its comments state, and every command of the CLI example exits 0."""

import os
import re
import shlex

from lgseries.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def fence_after(heading: str, lang: str) -> str:
    """The body of the first ``lang`` code fence after ``heading``."""
    with open(README) as fh:
        text = fh.read()
    start = text.index(heading)
    match = re.compile(r"```%s\n(.*?)```" % lang, re.S).search(text, start)
    return match.group(1)


def test_library_tour_values():
    scope = {}
    exec(fence_after("## Library tour", "python"), scope)
    rep = scope["rep"]
    assert (rep.points, rep.exact) == (5, 4)
    assert rep.tangent_histogram == {1: 4, 2: 1}
    assert scope["L"].validate_chain(scope["chain"]).ok


def test_cli_examples_exit_zero(capsys):
    body = fence_after("## Command-line interface", "sh")
    commands = [shlex.split(line) for line in body.replace("\\\n", " ")
                .splitlines() if line.startswith("lgseries ")]
    assert len(commands) == 13
    for argv in commands:
        code = main(argv[1:])
        capsys.readouterr()
        assert code == 0, argv
