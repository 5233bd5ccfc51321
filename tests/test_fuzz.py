"""Deterministic fuzzing of the CLI: mutated .gr, edge-list and .td
texts must end in a documented exit code (0, 1 or 2; 10 or 20 from
decide), never in an escaping exception.

The solver commands run on the .gr mutants too. Every replacement
token is either at most 4 or above graphio.MAX_VERTICES, so every graph
that parses has at most 4 vertices and its schedule is quick.
"""

from __future__ import annotations

import random

import pytest

from tdsolve.cli import main

# C4 plus a chord, in every input format, and a valid decomposition of it
GR = "c fuzz seed\np tw 4 5\n1 2\n2 3\n3 4\n4 1\n1 3\n"
EDGE_LIST = "4\n0 1\n1 2\n2 3\n3 0\n0 2\n"
TD = "s td 2 3 4\nb 1 1 2 3\nb 2 1 3 4\n1 2\n"
# in-range values make inputs that parse but break the decomposition
TOKENS = ("-1", "0", "1", "3", "99999999", "x")


def mutate(text: str, rng: random.Random) -> str:
    """One to three seeded edits: delete, duplicate or swap a line, or
    replace a token with a hostile value."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            fields = lines[i].split()
            if fields:
                fields[rng.randrange(len(fields))] = rng.choice(TOKENS)
                lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def _run(argv, capsys) -> int:
    code = main(argv)
    capsys.readouterr()
    return code


@pytest.mark.parametrize("seed", range(4))
def test_mutated_inputs_never_escape(seed, tmp_path, capsys):
    rng = random.Random(seed)
    gr, edges, td = tmp_path / "g.gr", tmp_path / "g.txt", tmp_path / "g.td"
    codes, solver_codes = set(), set()
    for _ in range(30):
        gr.write_text(mutate(GR, rng))
        edges.write_text(mutate(EDGE_LIST, rng))
        td.write_text(mutate(TD, rng))
        for argv in (
            ["validate", str(gr), str(td)],
            ["validate", str(edges), str(td), "--format", "edgelist"],
            ["export-dot", str(gr)],
            ["export-dot", str(edges), "--format", "edgelist"],
            ["export-dot", str(gr), "--td", str(td)],
            ["export-dot", str(edges), "--format", "edgelist", "--td", str(td)],
        ):
            code = _run(argv, capsys)
            assert code in (0, 1, 2), (argv, code)
            codes.add(code)
        for argv in (
            ["treewidth", str(gr), "--timeout", "1"],
            ["pathwidth", str(gr), "--timeout", "1"],
            ["decide", str(gr), "--m", "2", "--w", "2", "--decision-limit", "1000"],
            ["decide", str(gr), "--m", "3", "--w", "2", "--path"],
        ):
            code = _run(argv, capsys)
            assert code in (0, 1, 2, 10, 20), (argv, code)
            solver_codes.add(code)
    assert codes == {0, 1}  # the mutants reach both accepting and rejecting paths
    assert {0, 1} <= solver_codes  # some mutants are solved, others rejected
