"""Golden outputs of the exact layer and of the command line.

The digest and the files under ``tests/golden/`` were recorded from the code
before the per-case term tables, the shared discriminant helper and the ASCII
element formatter replaced their hand-written forms; both must stay identical.
"""

import hashlib
from pathlib import Path

import pytest

from lucasdensity.cli import main
from lucasdensity.density import REFERENCE_PROFILES, REFERENCE_ROWS, dispatch
from lucasdensity.errors import LucasDensityError
from lucasdensity.quadfield import make_context

GOLDEN = Path(__file__).parent / "golden"

PAIR_DIVISORS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 24, 30, 36)
EXACT_DIGEST = "ffe3207f30408f6750773ee928e2a909678cd1c1b45d9e3a3733ea23487f3cdb"


def _canonical(gamma, d):
    # keyed by the element's coordinates, not by str(), which is a display form
    key = f"{gamma.disc_k},{gamma.u},{gamma.v}"
    try:
        r = dispatch(gamma, d)
    except LucasDensityError as exc:
        return f"{key}|{d}|{type(exc).__name__}"
    trace = [(t.d, t.e, t.h, t.nu, repr(t.coefficient), repr(t.value)) for t in r.trace]
    echo = sorted((k, repr(v)) for k, v in r.inputs_echo.items())
    return (
        f"{key}|{d}|{r.delta!r}|{r.delta_plus!r}|{r.delta_minus!r}|{r.case_tag}|"
        f"{trace}|{echo}"
    )


def _corpus():
    for exp in REFERENCE_PROFILES:
        for d in range(1, 61):
            yield exp.gamma, d
    for a1 in range(-6, 7):
        for a2 in range(-6, 7):
            try:
                ctx = make_context(a1, a2)
            except LucasDensityError:
                continue
            for d in PAIR_DIVISORS:
                yield ctx.gamma, d


def test_exact_outputs_digest():
    lines = [_canonical(gamma, d) for gamma, d in _corpus()]
    assert len(lines) == 2080
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXACT_DIGEST


def _run(capsys, *argv):
    code = main(list(argv))
    assert code == 0, argv
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_tables_byte_for_byte(capsys, fmt):
    assert _run(capsys, "tables", "--format", fmt) == (GOLDEN / f"tables.{fmt}").read_text()


def test_explain_every_reference_row_byte_for_byte(capsys):
    out = []
    for row in REFERENCE_ROWS:
        g = row.gamma
        out.append(_run(
            capsys, "explain", "--gamma", str(g.u), str(g.v),
            "--radicand", str(g.disc_k), "--d", str(row.d),
        ))
    assert "".join(out) == (GOLDEN / "explain.txt").read_text()


def test_density_oracle_check_byte_for_byte(capsys):
    out = _run(capsys, "density", "--a1", "1", "--a2", "-1", "--d", "2", "--oracle-check")
    assert out == (GOLDEN / "density_oracle.txt").read_text()
