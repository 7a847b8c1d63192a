"""Golden tests for the command-line interface."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from lucasdensity import REFERENCE_ROWS, empirical_density, make_context
from lucasdensity.cli import main
from lucasdensity.lucasrank import _sieve


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_table_row(capsys):
    code, out, _ = run_cli(capsys, "density", "--gamma", "3", "1", "--radicand", "8", "--d", "6")
    assert code == 0
    assert "17/64 (0.265625)" in out
    assert "case = Q0" in out


def test_density_fibonacci(capsys):
    code, out, _ = run_cli(capsys, "density", "--a1", "1", "--a2", "-1", "--d", "2")
    assert code == 0
    assert "delta = 2/3 (0.666666)" in out
    assert "case = SWITCH_MINUS1" in out


def test_density_negative_gamma_tokens(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--gamma", "-13/14", "3/14", "--radicand", "-3", "--d", "3"
    )
    assert code == 0
    assert "delta = 3/4" in out


def test_density_reducible_exit_2(capsys):
    code, _, err = run_cli(capsys, "density", "--a1", "2", "--a2", "1", "--d", "3")
    assert code == 2
    assert "invalid input" in err


def test_density_torsion_exit_2(capsys):
    code, _, err = run_cli(capsys, "density", "--a1", "1", "--a2", "1", "--d", "3")
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize("subcommand", ["density", "verify", "explain"])
def test_density_norm_validation(capsys, subcommand):
    code, _, err = run_cli(
        capsys, subcommand, "--gamma", "1", "1", "--radicand", "8", "--d", "2"
    )
    assert code == 2
    assert f"{subcommand} needs a norm-1 element" in err


def test_density_rational_gamma_rejected(capsys):
    code, _, err = run_cli(
        capsys, "density", "--gamma", "1", "0", "--radicand", "5", "--d", "2"
    )
    assert code == 2


def test_density_requires_exactly_one_input(capsys):
    code, _, err = run_cli(capsys, "density", "--d", "2")
    assert code == 2
    code, _, err = run_cli(
        capsys, "density", "--a1", "1", "--a2", "-1",
        "--gamma", "3", "1", "--radicand", "8", "--d", "2",
    )
    assert code == 2


def test_density_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--gamma", "48/50", "7/50", "--radicand", "-4",
        "--d", "10", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    delta = Fraction(doc["delta"]["num"], doc["delta"]["den"])
    assert delta == Fraction(235, 1152)
    assert doc["case"] == "GAUSS_HI"
    assert doc["zeta"] == "i"
    assert doc["h"] == 2
    recomputed = sum(
        Fraction(t["coeff"]["num"], t["coeff"]["den"])
        * Fraction(t["value"]["num"], t["value"]["den"])
        for t in doc["trace"]
    )
    assert recomputed == delta


def test_density_csv(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--a1", "1", "--a2", "-1", "--d", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,delta_plus,delta_minus,case"
    assert lines[1] == "2/3,5/12,1/4,SWITCH_MINUS1"


def test_density_oracle_check(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--a1", "1", "--a2", "-1", "--d", "2", "--oracle-check"
    )
    assert code == 0
    assert out.rstrip().endswith(": equal")


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------


def test_explain_trivial(capsys):
    code, out, _ = run_cli(capsys, "explain", "--a1", "1", "--a2", "-1", "--d", "1")
    assert code == 0
    assert "trivial: density 1" in out


def test_explain_gauss_hi_narrative(capsys):
    code, out, _ = run_cli(
        capsys, "explain", "--gamma", "48/50", "7/50", "--radicand", "-4", "--d", "10"
    )
    assert code == 0
    assert "case = GAUSS_HI" in out
    assert "k = 1" in out
    assert "d_odd = 5" in out
    assert "m = 2" in out
    assert "scale = 47/48" in out
    assert "5/24" in out
    assert "delta = 235/1152" in out


def test_explain_q0_terms(capsys):
    code, out, _ = run_cli(
        capsys, "explain", "--gamma", "3", "1", "--radicand", "8", "--d", "6"
    )
    assert code == 0
    assert "case = Q0" in out
    assert "S(d=6, e=1, h=2, nu=1)" in out
    assert "S(d=6, e=4, h=2, nu=1)" in out


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_tables_all_rows_match(capsys):
    code, out, _ = run_cli(capsys, "tables")
    assert code == 0
    assert "18/18 rows match" in out
    assert "661/8064" in out  # the annotated discrepancy note


def test_tables_json(capsys):
    code, out, _ = run_cli(capsys, "tables", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 18
    assert all(r["match"] for r in rows)
    noted = [r for r in rows if "annotation" in r]
    assert len(noted) == 1 and noted[0]["d"] == 26


def test_tables_csv(capsys):
    code, out, _ = run_cli(capsys, "tables", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("gamma,d,case,")
    assert len(lines) == 19


@pytest.mark.parametrize("limit", ["1", "-5"])
def test_tables_limit_floor(capsys, limit):
    # without the check, 1 prints "empirical 0.000000" over 0 eligible primes
    # and -5 fails in the sieve with a message that does not name --limit
    code, out, err = run_cli(capsys, "tables", "--limit", limit)
    assert code == 2
    assert out == ""
    assert f"invalid input: --limit must be >= 100, got {limit}" in err


def _empirical_column(limit):
    """(empirical, deviation) per reference row, from the library counter."""
    out = []
    for row in REFERENCE_ROWS:
        ratio = empirical_density(row.gamma, row.d, limit).ratio
        out.append((float(ratio), float(abs(ratio - row.delta))))
    return out


def test_tables_limit_json(capsys):
    code, out, _ = run_cli(capsys, "tables", "--limit", "2000", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["empirical"], r["deviation"]) for r in rows] == _empirical_column(2000)


def test_tables_limit_csv(capsys):
    code, out, _ = run_cli(capsys, "tables", "--limit", "2000", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma,d,case,computed,expected,match,empirical,deviation"
    want = [f"{e:.6f},{dev:.6f}" for e, dev in _empirical_column(2000)]
    assert [",".join(line.split(",")[-2:]) for line in lines[1:]] == want


def test_tables_limit_text(capsys):
    code, out, _ = run_cli(capsys, "tables", "--limit", "2000")
    assert code == 0
    tails = [line.split("  empirical ")[1] for line in out.splitlines() if "  empirical " in line]
    assert tails == [f"{e:.6f} (dev {dev:.6f})" for e, dev in _empirical_column(2000)]
    assert "18/18 rows match" in out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--a1", "1", "--a2", "-1", "--d", "2", "--limit", "2000",
        "--format", "csv",
    )
    assert code == 0
    rep = empirical_density(make_context(1, -1), 2, 2000)
    dev = abs(rep.ratio - Fraction(2, 3))
    assert out.splitlines() == [
        "d,x,counted,counted_plus,counted_minus,eligible,ratio,delta,deviation,passed",
        f"2,2000,{rep.counted},{rep.counted_plus},{rep.counted_minus},{rep.eligible},"
        f"{rep.ratio.numerator}/{rep.ratio.denominator},2/3,{float(dev):.8f},1",
    ]


@pytest.mark.parametrize("subcommand", ["verify", "tables"])
def test_limit_at_the_sieve_ceiling(capsys, monkeypatch, subcommand):
    # a limit equal to the ceiling sieves to the ceiling, not one past it
    monkeypatch.setattr("lucasdensity.lucasrank.SIEVE_CEILING", 1000)
    argv = ["--a1", "1", "--a2", "-1", "--d", "2"] if subcommand == "verify" else []
    code, out, err = run_cli(capsys, subcommand, *argv, "--limit", "1000")
    assert (code, err) == (0, "")
    code, _, err = run_cli(capsys, subcommand, *argv, "--limit", "1001")
    assert code == 2
    assert "sieve limit 1001 exceeds the ceiling 1000" in err


@pytest.mark.parametrize("d", [str(2**63), str(2**89 - 1)])
def test_verify_divisor_past_int64(capsys, d):
    code, out, err = run_cli(
        capsys, "verify", "--a1", "1", "--a2", "-1", "--d", d, "--limit", "1000",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["counted"] == 0
    assert doc["eligible"] == empirical_density(make_context(1, -1), 1, 1000).eligible


def test_verify_fibonacci_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--a1", "1", "--a2", "-1", "--d", "2",
        "--limit", "20000", "--threads", "1",
    )
    assert code == 0
    assert "PASS" in out
    assert "closed form delta = 2/3" in out


def test_verify_d1_exact(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--a1", "1", "--a2", "-1", "--d", "1",
        "--limit", "5000", "--threads", "1",
    )
    assert code == 0
    assert "deviation = 0.000000" in out


def test_verify_limit_floor(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--a1", "1", "--a2", "-1", "--d", "2", "--limit", "50"
    )
    assert code == 2
    assert "invalid input: --limit must be >= 100, got 50" in err


@pytest.mark.parametrize("subcommand", ["density", "verify", "explain"])
def test_nonpositive_d_exit_2(capsys, subcommand):
    code, _, err = run_cli(capsys, subcommand, "--a1", "1", "--a2", "-1", "--d", "0")
    assert code == 2
    assert "invalid input" in err
    assert "d must be a positive integer" in err


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--a1", "1", "--a2", "-1", "--d", "2",
        "--limit", "20000", "--threads", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["eligible"] > 2000
    assert Fraction(doc["delta"]["num"], doc["delta"]["den"]) == Fraction(2, 3)


def test_verify_dump_ranks(tmp_path, capsys):
    path = tmp_path / "dump.csv"
    code, _, _ = run_cli(
        capsys, "verify", "--a1", "1", "--a2", "-1", "--d", "2",
        "--limit", "2000", "--threads", "1", "--dump-ranks", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p,rank,jacobi,divisible"
    assert len(lines) > 100


@pytest.mark.parametrize("argv", [
    ("tables", "--limit", "2500"),
    ("verify", "--a1", "1", "--a2", "-1", "--d", "2", "--limit", "2500", "--dump-ranks", "{path}"),
])
def test_one_sieve_per_command(tmp_path, capsys, argv):
    # the 18 rows of tables, and verify's count and dump, share the kept sieve
    _sieve.cache_clear()
    code, _, _ = run_cli(capsys, *(arg.format(path=tmp_path / "dump.csv") for arg in argv))
    assert code == 0
    assert _sieve.cache_info().misses == 1


@pytest.mark.parametrize("argv, digest", [
    (("--a1", "1", "--a2", "-1", "--d", "2"),
     "c82cbe2e79f4f6e06ee5d69bd6ae9f15366e48163487cd285e330a230c982b4a"),
    (("--gamma", "48/50", "7/50", "--radicand", "-4", "--d", "10"),
     "31481002fb1a5150b5ae530b12b24c2a3f823c784d9b7787bdac14dc40ac284d"),
    (("--gamma", "-13/14", "3/14", "--radicand", "-3", "--d", "14"),
     "76db63b2e6ee5e21597c269e4cb8c0a9a9b51f7a6fba8c466856bc95b5f12f01"),
])
def test_verify_dump_ranks_pinned(tmp_path, capsys, argv, digest):
    # recorded from the smallest-prime-factor descent, before rank() factored
    # with arith.factorize: every byte of the CSV must stay the same
    path = tmp_path / "dump.csv"
    code, _, _ = run_cli(
        capsys, "verify", *argv, "--limit", "2000", "--dump-ranks", str(path)
    )
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, reason", [
    (("density", "--gamma", "1", "0", "--radicand", "5", "--d", "2"), "root of unity 1+0*sqrt(5)"),
    (("density", "--gamma", "1", "1", "--radicand", "8", "--d", "2"), "1+1*sqrt(8) of norm -7"),
    (("explain", "--gamma", "1", "1", "--radicand", "8", "--d", "1"), "1+1*sqrt(8) of norm -7"),
    (("density", "--a1", "1", "--a2", "1", "--d", "2"), "root of unity"),
    (("density", "--gamma", "1/0", "1", "--radicand", "5", "--d", "2"), "unparsable --gamma"),
    (("verify", "--a1", "1", "--a2", "-1", "--d", "2", "--limit", "50"), "--limit must be >= 100"),
    (("density", "--a1", "1", "--a2", "-1", "--d", "0"), "d must be a positive integer, got 0"),
    (("verify", "--a1", "1", "--a2", "-1", "--d", "2", "--limit", "1000",
      "--dump-ranks", "{missing}"), "cannot write --dump-ranks {missing}: "),
])
def test_malformed_input_never_shows_a_traceback(tmp_path, capsys, argv, reason):
    missing = tmp_path / "missing" / "ranks.csv"
    code, _, err = run_cli(capsys, *[a.format(missing=missing) for a in argv])
    assert code == 2
    assert err.startswith("invalid input:")
    assert reason.format(missing=missing) in err
    assert "Traceback" not in err


def test_tables_has_no_threads_option(capsys):
    code, _, err = run_cli(capsys, "tables", "--threads", "1")
    assert code == 2
    assert "unrecognized arguments: --threads 1" in err


def test_verify_strict_on_passing_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--a1", "1", "--a2", "-1", "--d", "2",
        "--limit", "20000", "--threads", "1", "--strict",
    )
    assert code == 0


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "lucasdensity.cli",
         "density", "--a1", "1", "--a2", "-1", "--d", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "2/3" in proc.stdout


def test_unknown_subcommand_is_bad_input(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
