import argparse
import hashlib
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from bolkit import cli, oracle
from bolkit.catalog import FIXTURE_ORDER8, fixture_text
from bolkit.cli import build_parser, construct_from_spec, main
from bolkit.errors import BadParams, BadSpec
from bolkit.extensions import automorphism_group
from bolkit.loop_core import parse_table
from bolkit.structure import structure_report
from bolkit.verify import ClaimResult, report_lines

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference" / "verify_report.txt"


@pytest.fixture()
def fixture_path(tmp_path):
    p = tmp_path / "order8.tbl"
    p.write_text(fixture_text(FIXTURE_ORDER8))
    return str(p)


def test_check_reports_structure(fixture_path, capsys):
    assert main(["check", fixture_path]) == 0
    out = capsys.readouterr().out
    assert "commutant: {1,2,3,4}" in out
    assert "left_bol: true" in out


def test_check_is_deterministic(fixture_path, capsys):
    main(["check", fixture_path])
    first = capsys.readouterr().out
    main(["check", fixture_path])
    assert capsys.readouterr().out == first


def test_check_z2(tmp_path, capsys):
    p = tmp_path / "z2.tbl"
    p.write_text("2\n1 2\n2 1\n")
    assert main(["check", str(p)]) == 0
    assert "associative: true" in capsys.readouterr().out


ORDER1_REPORT = """order: 1
left_bol: true
right_bol: true
moufang: true
associative: true
commutative: true
left_power_alternative: true
commutant: {1}
commutant_size: 1
commutant_is_subloop: true
commutant_in_rnuc: true
lnuc: {1}
mnuc: {1}
rnuc: {1}
nucleus: {1}
center: {1}
involutions: 0
"""


def test_check_order_one(tmp_path, capsys):
    # the trivial loop: every identity holds, every set is {1}
    assert structure_report(parse_table("1\n1\n")) == "name: -\n" + ORDER1_REPORT
    p = tmp_path / "one.tbl"
    p.write_text("1\n1\n")
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out == f"name: {p}\n" + ORDER1_REPORT


def test_check_corrupted_file(tmp_path, fixture_path, capsys):
    # every command that reads files names the bad one
    p = str(tmp_path / "bad.tbl")
    Path(p).write_text("2\n1 1\n2 1\n")
    for argv in (["check", p], ["classify", fixture_path, p], ["iso", fixture_path, p]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: ")


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "latin1.tbl"
    p.write_bytes(b"# caf\xe9\n2\n1 2\n2 1\n")
    for argv in (["check", str(p)], ["classify", str(p)], ["iso", str(p), str(p)]):
        assert main(argv) == 2
        assert "not UTF-8" in capsys.readouterr().err


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/nowhere.tbl"]) == 2


@pytest.mark.parametrize("entry", ["١", "+1", "0_2", "²"])
def test_check_rejects_entries_that_are_not_ascii_digits(tmp_path, capsys, entry):
    p = tmp_path / "z2.tbl"
    p.write_text(f"2\n{entry} 2\n2 1\n")
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_construct_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "x.tbl"
    assert main(["construct", "exceptional", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.parent.exists()


def test_construct_q9_and_check_round_trip(tmp_path, capsys):
    out = tmp_path / "q9.tbl"
    assert main(["construct", "q9 000000000", "-o", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    Q = parse_table(text)
    assert Q.order == 16
    assert len(text.strip().splitlines()) == 17  # order line + 16 rows
    assert main(["check", str(out)]) == 0
    assert "left_bol: true" in capsys.readouterr().out


def test_construct_exceptional_to_stdout(capsys):
    assert main(["construct", "exceptional"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "16"
    assert parse_table(out).order == 16


def test_construct_named(capsys, tmp_path):
    out = tmp_path / "t.tbl"
    assert main(["construct", "named order12", "-o", str(out)]) == 0
    assert parse_table(out.read_text()).order == 12
    assert main(["construct", "named order4n:5", "-o", str(out)]) == 0
    assert parse_table(out.read_text()).order == 20
    assert main(["construct", "named commutant:5", "-o", str(out)]) == 0
    assert parse_table(out.read_text()).order == 24


def test_construct_semidirect_matches_named(capsys):
    Q = construct_from_spec("semidirect K=cyclic:3 E=elem2:2 tau=0,0,0,1")
    named = construct_from_spec("named order12")
    assert Q == named


def test_construct_bad_specs(capsys):
    # grammar problems raise BadSpec; a well-formed spec with a bad
    # parameter value raises BadParams; the CLI exits 2 on either
    for spec in (
        "",
        "q9 01",
        "q9 00000000x",
        "named bogus",
        "semidirect K=cyclic:3 E=elem2:2",
        "semidirect K=cyclic:3 E=elem2:2 tau=0,0,0",
        "semidirect K=cyclic:3 E=elem2:2 tau=0,0,0,9",
        "semidirect K=weird:3 E=elem2:2 tau=trivial",
        "semidirect K=cyclic:3 K=cyclic:4 E=elem2:2 tau=trivial",
        # not ASCII digits int() reads: isdigit() passes ² ① ³, int() reads -1 and ١
        "named order4n:²",
        "named commutant:①",
        "semidirect K=cyclic:³ E=cyclic:2 tau=trivial",
        "semidirect K=cyclic:3 E=elem2:2 tau=0,0,0,-1",
        "semidirect K=cyclic:3 E=elem2:2 tau=0,0,0,١",
        "named order4n:" + "9" * 5000,
    ):
        with pytest.raises(BadSpec):
            construct_from_spec(spec)
    with pytest.raises(BadParams):
        construct_from_spec("named order4n:2")
    assert main(["construct", "q9 01"]) == 2
    assert main(["construct", "named order4n:2"]) == 2
    assert main(["construct", "named commutant:①"]) == 2


def test_construct_semidirect_lists_automorphisms_only_for_indices(monkeypatch, capsys):
    # tau=trivial needs no automorphism list: |Aut(Z2^6)| is about 2*10^10
    assert main(["construct", "semidirect K=elem2:6 E=cyclic:2 tau=trivial"]) == 0
    assert parse_table(capsys.readouterr().out).order == 128
    # an index list does, and |Aut(Z2^5)| = |GL(5,2)| is past the cap: the
    # count alone refuses it, before a single automorphism is listed
    def unlisted(K):
        raise AssertionError("automorphism_group called")

    monkeypatch.setattr(cli, "automorphism_group", unlisted)
    for K in ("elem2:5", "elem2:6"):
        assert main(["construct", f"semidirect K={K} E=cyclic:2 tau=0,1"]) == 2
        assert "capped at 20160 maps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "token", [f"cyclic:{n}" for n in range(1, 17)] + ["elem2:1", "elem2:2", "elem2:3"]
)
def test_parsed_group_automorphism_count_is_the_listed_count(token):
    K, count = cli._build_group(*cli._parse_group(token))
    assert count == len(automorphism_group(K))


@pytest.mark.parametrize(
    "spec",
    [
        "semidirect K=cyclic:4100 E=cyclic:2 tau=trivial",
        "semidirect K=cyclic:3 E=cyclic:1400 tau=trivial",
        "semidirect K=cyclic:3 E=elem2:64 tau=trivial",
        "semidirect K=cyclic:4096 E=cyclic:4096 tau=trivial",
        "named order4n:1100",
        "named commutant:5000",
    ],
)
def test_construct_rejects_oversized_specs(spec, capsys, monkeypatch):
    # the size is checked before the oversized table, or tau on its
    # groups, is built
    def refuse(K, E):
        raise AssertionError("tau built for an oversized spec")

    monkeypatch.setattr(cli, "trivial_tau", refuse)
    assert main(["construct", spec]) == 2
    assert "exceeds supported maximum" in capsys.readouterr().err


def test_classify_same_file_twice(fixture_path, capsys):
    assert main(["classify", fixture_path, fixture_path]) == 0
    out = capsys.readouterr().out
    assert "2 tables in 1 isomorphism classes" in out
    assert out.startswith("class 1: size 2")


def test_classify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tbl"
    bad.write_text("nonsense")
    assert main(["classify", str(bad)]) == 2


def test_iso_command(tmp_path, capsys):
    a = tmp_path / "a.tbl"
    b = tmp_path / "b.tbl"
    a.write_text("2\n1 2\n2 1\n")
    b.write_text("2\n1 2\n2 1\n")
    assert main(["iso", str(a), str(b)]) == 0
    assert capsys.readouterr().out.startswith("isomorphic: 1 2")
    c = tmp_path / "c.tbl"
    c.write_text("4\n1 2 3 4\n2 1 4 3\n3 4 1 2\n4 3 2 1\n")
    d = tmp_path / "d.tbl"
    d.write_text("4\n1 2 3 4\n2 3 4 1\n3 4 1 2\n4 1 2 3\n")
    assert main(["iso", str(c), str(d)]) == 1
    assert "non-isomorphic" in capsys.readouterr().out


def test_oracle_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "order9"])
    assert exc.value.code == 2
    assert "invalid choice: 'order9'" in capsys.readouterr().err


ORACLE_ORDER8_OUT = """\
tables found: 7800
isomorphism classes: 11
associative classes: 5
nonassociative classes: 6
all commutants are subloops: yes
"""


def test_oracle_order8_output(suite, monkeypatch, capsys):
    # the session suite has the order-8 search cached already
    monkeypatch.setattr(cli, "witnessed_search", lambda n: suite.order8_search)
    assert main(["oracle", "order8"]) == 0
    assert capsys.readouterr().out == ORACLE_ORDER8_OUT


@pytest.mark.parametrize(
    "field, value, check",
    [
        ("witnesses_cover_tables", False, "relabeling witnesses"),
        ("all_commutants_subloops", False, "commutants"),
        ("associative_classes", 4, "class counts"),
        ("nonassociative_classes", 7, "class counts"),
        ("orbit_stabilizer_total", 7799, "orbit-stabilizer"),
    ],
)
def test_oracle_order8_fails_on_any_failed_check(suite, monkeypatch, capsys, field, value, check):
    bad = replace(suite.order8_report, **{field: value})
    monkeypatch.setattr(cli, "witnessed_search", lambda n: suite.order8_search)
    monkeypatch.setattr(cli, "summarize_order8", lambda search: bad)
    assert main(["oracle", "order8"]) == 1
    assert capsys.readouterr().err == f"error: failed checks: {check}\n"


def test_oracle_budget_failure(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "SEARCH_BUDGET", 10)
    assert main(["oracle", "order8"]) == 1
    assert "error" in capsys.readouterr().err


def test_report_lines_format():
    results = [
        ClaimResult("sec6-19-noniso", "pairwise non-isomorphic", True, "ok", 1.25),
        ClaimResult("sec5-order8-oracle", "order-8 search", False, "boom", 0.5),
    ]
    lines = report_lines(results)
    assert lines[0] == "claim sec6-19-noniso: PASS (pairwise non-isomorphic)"
    assert lines[1] == "  ok"  # no timing in default output
    assert lines[2] == "claim sec5-order8-oracle: FAIL (order-8 search)"
    assert lines[-1] == "claims passed: 1/2"


def test_enumerate_q9_default_mode(capsys):
    assert main(["enumerate-q9"]) == 0
    out = capsys.readouterr().out
    *loop_lines, last = out.splitlines()
    assert last == "512 loops"
    # enumerate_q9 is lexicographic in the nine bits
    assert [line.split()[0] for line in loop_lines] == [f"q9_{t:09b}" for t in range(512)]
    involutions = Counter()
    for line in loop_lines:
        _, com, inv, rnuc = line.split()
        assert (com, rnuc) == ("commutant=6", "rnuc=8"), line
        involutions[int(inv.removeprefix("involutions="))] += 1
    assert involutions == {3: 24, 5: 96, 7: 152, 9: 128, 11: 72, 13: 32, 15: 8}
    # the pairing of names and involution counts too
    assert hashlib.md5(out.encode()).hexdigest() == "0b0b4da8f0d635b20def21a4eb0e59b7"


def test_enumerate_q9_classify_mode(capsys):
    assert main(["enumerate-q9", "--classify"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "512 loops in 19 isomorphism classes"
    # representatives, members and class order of the family's tables
    assert hashlib.md5(out.encode()).hexdigest() == "36677e1cfc67cbc7d8358e8d15433f40"


def test_construct_then_check_never_errors(tmp_path, capsys):
    specs = [
        "q9 101010101",
        "exceptional",
        "named order12",
        "named order16cyclic",
        "named order16elem",
        "named order4n:3",
        "named commutant:4",
        "semidirect K=cyclic:4 E=elem2:2 tau=0,0,0,1",
        "semidirect K=elem2:2 E=cyclic:2 tau=trivial",
    ]
    for i, spec in enumerate(specs):
        out = tmp_path / f"t{i}.tbl"
        assert main(["construct", spec, "-o", str(out)]) == 0
        assert main(["check", str(out)]) == 0
    capsys.readouterr()


def test_verify_suite_exposes_required_claim_ids():
    from bolkit.verify import VerificationSuite

    ids = [cid for cid, _, _ in VerificationSuite().claim_definitions()]
    assert "sec6-19-noniso" in ids
    assert "sec5-order8-oracle" in ids
    assert len(ids) == len(set(ids))


def test_order8_claim_propagates_budget_error(monkeypatch):
    from bolkit.errors import SearchBudgetExceeded
    from bolkit.verify import VerificationSuite

    monkeypatch.setattr(oracle, "SEARCH_BUDGET", 10)
    suite = VerificationSuite()
    fns = {cid: fn for cid, _, fn in suite.claim_definitions()}
    with pytest.raises(SearchBudgetExceeded):
        fns["sec5-order8-oracle"]()


def test_verify_paper_json(suite, monkeypatch, capsys):
    import json

    # the session suite has the order-8 tables cached already
    monkeypatch.setattr(cli, "VerificationSuite", lambda: suite)
    assert main(["verify-paper", "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["id"] for r in records] == [cid for cid, _, _ in suite.claim_definitions()]
    assert len(records) == 13
    assert all(set(r) == {"id", "passed", "details", "elapsed_s"} for r in records)
    assert all(r["passed"] is True and r["elapsed_s"] >= 0 for r in records)
    reference = (REFERENCE.read_text(encoding="utf-8").splitlines())[1:-1:2]
    assert ["  " + r["details"] for r in records] == reference


def test_verify_paper_json_excludes_timings(capsys):
    # --json gives each claim's elapsed_s; there is no second timed output
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--json", "--timings"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --timings" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["oracle", "order8"], ["verify-paper"]], ids=["oracle", "verify-paper"]
)
def test_budget_is_not_an_option(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--budget", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 10" in capsys.readouterr().err


def _documented_options(lines):
    """{subcommand: options} from usage lines "bolkit SUBCOMMAND ARGS ..."."""
    usage = {}
    for line in lines:
        if line.startswith("bolkit "):
            words = [w.strip("[]") for w in line.split("#")[0].split()]
            usage[words[1]] = {w for w in words[2:] if w.startswith("-")}
    return usage


def _readme_command_block():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0].splitlines()


@pytest.mark.parametrize(
    "lines",
    [cli.__doc__.splitlines(), _readme_command_block()],
    ids=["cli docstring", "README"],
)
def test_documented_commands_match_the_parser(lines):
    # every subcommand and every option of main's parser is listed, and
    # nothing else is: a flag removed from the parser cannot linger here
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    documented = _documented_options(lines)
    assert set(documented) == set(commands.choices)
    for name, parser in commands.choices.items():
        flags = [a.option_strings for a in parser._actions if a.option_strings and a.dest != "help"]
        assert all(documented[name] & set(f) for f in flags), name
        assert documented[name] <= {s for f in flags for s in f}, name
