"""Extreme numbers in the sample equations and their compiled netlists.

Each case sets one or two numbers of a sample ``.eq`` file, or of the
netlist it compiles to, to an extreme value and runs every command that
reads it at a short horizon through ``cli.main``.  Whatever the input
does, the exit code is 0, 2 (input error) or 3 (unsupported), never 4
(internal error).  Cases are drawn from a fixed seed.
"""

import random
import re
from pathlib import Path

import pytest

from memsolve.cli import main

EQUATIONS = sorted(p.stem for p in (Path(__file__).parent.parent / "equations").glob("*.eq"))
EXTREMES = ("nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "1e-320", "5e-324")
# a number that is a whole token: not part of a name (y1_2), an index (a[1]) or another number
NUMBER = re.compile(r"(?<![\w.\[])[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
SEED = 2026
CASES = 16  # per equation and file kind

RUN = ["--dt", "1e-2", "--t-end", "0.5", "--quiet"]
COMMANDS = {
    "eq": [["compile", "--quiet"], ["oracle", *RUN],
           ["convergence", "--dt-list", "4e-2,2e-2,1e-2", "--t-end", "0.4", "--quiet"]],
    "net": [["simulate", *RUN], ["stability", "--iterations", "4", *RUN]],
}


def _numbers(text: str) -> list[tuple[int, int]]:
    """Spans of the numbers in the values of the declarations (not in comments)."""
    spans = []
    for line in re.finditer(r"^(?!#).*$", text, re.M):
        value_at = line.group(0).find("=")
        if value_at < 0 and not line.group(0).startswith("valid_to"):
            continue
        for number in NUMBER.finditer(line.group(0), max(value_at, 0)):
            spans.append((line.start() + number.start(), line.start() + number.end()))
    return spans


def _mutant(text: str, rng: random.Random) -> str:
    spans = _numbers(text)
    for a, b in sorted(rng.sample(spans, min(len(spans), rng.choice((1, 2)))), reverse=True):
        text = text[:a] + rng.choice(EXTREMES) + text[b:]
    return text


@pytest.mark.parametrize("equation", EQUATIONS)
def test_extreme_numbers_exit_0_2_or_3(tmp_path, capsys, equation):
    rng = random.Random(f"{SEED}-{equation}")
    source = Path(__file__).parent.parent / "equations" / f"{equation}.eq"
    net = tmp_path / "nominal.net"
    assert main(["compile", str(source), "-o", str(net), "--quiet"]) == 0
    out = str(tmp_path / "out")
    for kind, text in (("eq", source.read_text()), ("net", net.read_text())):
        for case in range(CASES):
            mutated = tmp_path / f"case{case}.{kind}"
            mutated.write_text(_mutant(text, rng))
            for command in COMMANDS[kind]:
                code = main([command[0], str(mutated), "-o", out, *command[1:]])
                assert code in (0, 2, 3), (command[0], mutated.read_text(), capsys.readouterr().err)
    capsys.readouterr()
