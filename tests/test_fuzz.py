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


# --- command-line flags at extremes ------------------------------------------

FLAG_VALUES = ("nan", "inf", "-inf", "-0", "5e-324", "1e308", str(2**64))
# every value is an invalid setting of its flag or puts the run over the record cap,
# but these, which would start a real sweep
VALID = {("--tolerance", "-0"), ("--tolerance", "5e-324"), ("--seed", "-0")}
FLAGS = {
    "simulate": ("net", {"--dt": "1e-2", "--t-end": "0.5"}),
    "oracle": ("eq", {"--dt": "1e-2", "--t-end": "0.5"}),
    "stability": ("net", {"--dt": "1e-2", "--t-end": "0.5", "--tolerance": "0.1",
                          "--iterations": "4", "--seed": "1"}),
    "convergence": ("eq", {"--dt-list": "4e-2,2e-2,1e-2", "--t-end": "0.4"}),
}


def _exit_code(argv) -> int:
    """``cli.main``'s exit code, argparse's rejections (``SystemExit``) included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _flag_cases(flags):
    """The command's flags with one of them set to an extreme value; ``--dt-list``
    gets it at each of its three places."""
    for flag, nominal in flags.items():
        for value in FLAG_VALUES:
            if (flag, value) in VALID:
                continue
            if flag != "--dt-list":
                yield {**flags, flag: value}
                continue
            for place in range(3):
                entries = nominal.split(",")
                entries[place] = value
                yield {**flags, flag: ",".join(entries)}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_extreme_flags_exit_2(tmp_path, capsys, command):
    source = Path(__file__).parent.parent / "equations" / "population_growth.eq"
    if FLAGS[command][0] == "net":
        net = tmp_path / "nominal.net"
        assert main(["compile", str(source), "-o", str(net), "--quiet"]) == 0
        source = net
    out = tmp_path / "out.csv"
    for flags in _flag_cases(FLAGS[command][1]):
        # --flag=value, so that argparse reads "-inf" and "-0" as values
        argv = [command, str(source), "-o", str(out), "--quiet", *(f"{k}={v}" for k, v in flags.items())]
        assert _exit_code(argv) == 2, (argv, capsys.readouterr().err)
        assert not out.exists()
    capsys.readouterr()


# --- inputs nested past the interpreter's recursion limit ----------------------

DEPTH = 2000
DEEP = {
    "parentheses": f'fgen f0 out=a0 expr="{"(" * DEPTH}t{")" * DEPTH}"\noutput a0\n',
    "signs": f'fgen f0 out=a0 expr="{"-" * DEPTH}t"\noutput a0\n',
    "flat_sum": f'fgen f0 out=a0 expr="{" + ".join(["t"] * DEPTH)}"\noutput a0\n',
    "adder_chain": 'fgen f0 out=a0 expr="t"\n'
                   + "".join(f"adder a{k} out=a{k} in=a{k - 1}:1\n" for k in range(1, DEPTH + 1))
                   + f"output a{DEPTH}\n",
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deeply_nested_input_exits_2(tmp_path, capsys, shape):
    """The parser, ``validate``'s variable scan and its algebraic-loop search
    recurse once per level; past the interpreter's limit the input is too
    deep to read, an input error."""
    net = tmp_path / "deep.net"
    net.write_text(DEEP[shape])
    assert main(["simulate", str(net), "-o", str(tmp_path / "out.csv"), "--dt", "1e-2", "--t-end", "0.1",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and "nests too deeply" in err
