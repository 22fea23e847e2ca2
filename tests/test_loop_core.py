import random

import pytest

import refcheck
from bolkit import errors
from bolkit.catalog import FIXTURE_ORDER8, load_fixture
from bolkit.loop_core import (
    MAX_ORDER,
    LoopTable,
    compose,
    decimal_ints,
    element_order,
    identity_perm,
    inverse,
    left_divide,
    mul,
    parse_table,
    power,
    render,
    right_divide,
)
from bolkit.structure import _opposite, check_identity, commutant


@pytest.fixture(scope="module")
def T8():
    return load_fixture(FIXTURE_ORDER8)


# a non-power-associative loop of order 5 (first one found by enumeration)
NPA5 = parse_table("5\n1 2 3 4 5\n2 1 4 5 3\n3 4 5 1 2\n4 5 2 3 1\n5 3 1 2 4")


def test_parse_z2():
    Q = parse_table("2\n1 2\n2 1")
    assert Q.order == 2
    assert mul(Q, 2, 2) == 1


def test_parse_fixture_order8(T8):
    assert T8.order == 8


def test_parse_not_latin():
    with pytest.raises(errors.NotLatin):
        parse_table("2\n1 1\n2 1")


def test_parse_malformed():
    with pytest.raises(errors.Malformed):
        parse_table("2\n1 2\n2")
    with pytest.raises(errors.Malformed):
        parse_table("2\n1 2\n2 3")
    with pytest.raises(errors.Malformed):
        parse_table("x\n1")
    with pytest.raises(errors.Malformed):
        parse_table("")


def test_parse_accepts_only_ascii_digit_tokens():
    # int() alone reads "١" and "+1" as 1, "0_2" as 2 and "1١" as 11
    for bad in ("١", "+1", "0_2", "1١", "²"):
        with pytest.raises(errors.Malformed):
            parse_table(f"2\n{bad} 2\n2 1")
    for bad in ("٢", "+2", "0_2"):
        with pytest.raises(errors.Malformed):
            parse_table(f"{bad}\n1 2\n2 1")
    assert parse_table("02\n01 2\n2 001") == parse_table("2\n1 2\n2 1")


def test_decimal_ints():
    assert decimal_ints(["0", "17", "4096"]) == [0, 17, 4096]
    for tokens in (["1", "-2"], ["²"], ["١"], ["1_0"], [""], ["9" * 5000]):
        with pytest.raises(ValueError):
            decimal_ints(tokens)


def test_parse_no_identity():
    with pytest.raises(errors.NoIdentity):
        parse_table("3\n2 1 3\n1 3 2\n3 2 1")


def test_parse_relabels_identity():
    # identity sits at element 2; relative order of the others is kept
    Q = parse_table("3\n3 1 2\n1 2 3\n2 3 1", name="shifted")
    assert Q.cells[0] == (1, 2, 3)
    assert all(Q.cells[x][0] == x + 1 for x in range(3))
    assert "relabeled identity 2->1" in Q.name
    assert mul(Q, 2, 2) == 3  # old 1*1 = 3 stays 3


def test_parse_skips_comments():
    Q = parse_table("# a comment\n2\n# another\n1 2\n2 1")
    assert Q.order == 2


def test_render_round_trip(T8):
    from bolkit.extensions import build_named_example

    for Q in (T8, LoopTable.from_cells([[1]]), build_named_example("order4n", n=256)):
        assert parse_table(render(Q)) == Q
    z2 = parse_table("2\n1 2\n2 1")
    assert render(z2) == "2\n1 2\n2 1\n"


def test_render_writes_each_row_as_its_joined_values():
    from bolkit.extensions import build_named_example, cyclic_group, elem_abelian_2

    for Q in (
        LoopTable.from_cells([[1]]),
        cyclic_group(2),
        build_named_example("order16cyclic"),
        LoopTable(255, refcheck.shuffled(cyclic_group(255).cells, random.Random(255))),
        elem_abelian_2(8),
        build_named_example("order4n", n=256),  # order 1024
    ):
        lines = render(Q).split("\n")
        assert lines == [str(Q.order), *(" ".join(str(v) for v in row) for row in Q.cells), ""]


def test_mul_examples(T8):
    assert mul(T8, 5, 7) == 3
    assert mul(T8, 7, 5) == 4  # 5 and 7 do not commute
    assert all(mul(T8, 1, x) == x for x in T8.elements())


def test_divisions(T8):
    assert left_divide(T8, 5, 3) == 7
    assert right_divide(T8, 5, 3) == 8
    for a in T8.elements():
        assert left_divide(T8, a, a) == 1
        assert right_divide(T8, a, a) == 1


def test_latin_round_trips(T8):
    for a in T8.elements():
        for b in T8.elements():
            assert mul(T8, a, left_divide(T8, a, b)) == b
            assert mul(T8, right_divide(T8, a, b), a) == b
            assert left_divide(T8, a, mul(T8, a, b)) == b


def test_translation(T8):
    # L_a is row a of the table; R_a is row a of the opposite table
    op = _opposite(T8.cells)
    assert T8.cells[0] == op[0] == identity_perm(8)
    assert T8.cells[4] == (5, 6, 7, 8, 1, 2, 3, 4)
    for a in T8.elements():
        assert all(T8.cells[a - 1][b - 1] == mul(T8, a, b) for b in T8.elements())
        assert all(op[a - 1][b - 1] == mul(T8, b, a) for b in T8.elements())
    for c in commutant(T8):
        assert T8.cells[c - 1] == op[c - 1]


def test_power(T8):
    assert all(power(T8, a, 0) == 1 for a in T8.elements())
    assert power(T8, 7, 2) == 2
    assert power(T8, 7, 3) == 8
    assert power(T8, 7, 4) == 1
    assert power(T8, 7, -1) == inverse(T8, 7)


def test_power_translations_match_in_bol(T8):
    # L_{a^m} = L_a^m holds in left Bol loops
    assert check_identity(T8, "left_bol")
    for a in T8.elements():
        la_m = identity_perm(8)  # L_a composed with itself m times
        for m in range(element_order(T8, a) + 2):
            assert T8.cells[power(T8, a, m) - 1] == la_m
            la_m = compose(la_m, T8.cells[a - 1])


def test_power_addition_law_in_bol(T8):
    from bolkit.extensions import build_named_example
    from bolkit.gf2 import build_exceptional, build_q9

    for Q in (T8, build_named_example("order12"), build_exceptional(), build_q9((1, 0, 1, 0, 0, 1, 0, 0, 1))):
        assert check_identity(Q, "left_bol")
        n = Q.order
        for a in Q.elements():
            pw = [power(Q, a, m) for m in range(4 * n + 1)]
            for m in range(2 * n + 1):
                for k in range(2 * n + 1):
                    assert pw[m + k] == mul(Q, pw[m], pw[k])


def test_element_order(T8):
    assert element_order(T8, 1) == 1
    assert element_order(T8, 7) == 4
    assert element_order(T8, 2) == 2


def test_element_order_not_power_associative():
    with pytest.raises(errors.NotPeriodicThroughIdentity):
        element_order(NPA5, 3)


def test_element_order_matches_the_definition():
    from bolkit.catalog import property_catalog
    from bolkit.oracle import enumerate_all_loops, search_left_bol

    tables = [Q for n in range(1, 6) for Q in enumerate_all_loops(n)]
    tables += property_catalog() + search_left_bol(6)
    aperiodic = 0
    for Q in tables:
        for a in Q.elements():
            expected = refcheck.order(Q.cells, a)
            try:
                got = element_order(Q, a)
            except errors.NotPeriodicThroughIdentity:
                got = None
            assert got == expected, (Q.cells, a)
            aperiodic += expected is None
    assert aperiodic > 0  # the non-power-associative loops are covered


def test_power_negative_requires_inverse():
    # element 3 of NPA5: 3*5 = 2 gives right inverse 5? actually check both sides
    bad = [
        a
        for a in NPA5.elements()
        if left_divide(NPA5, a, 1) != right_divide(NPA5, a, 1)
    ]
    assert bad, "expected some element without a two-sided inverse"
    with pytest.raises(errors.NoInverse):
        power(NPA5, bad[0], -1)
    with pytest.raises(errors.NoTwoSidedInverse):
        inverse(NPA5, bad[0])


def test_inverse(T8):
    assert inverse(T8, 1) == 1
    assert inverse(T8, 7) == 8
    # in a left Bol loop every element has a two-sided inverse
    for a in T8.elements():
        b = inverse(T8, a)
        assert mul(T8, a, b) == 1 and mul(T8, b, a) == 1


def test_perm_helpers():
    p = (2, 3, 1)
    q = (1, 3, 2)
    assert compose(p, q) == (3, 2, 1)  # apply p then q


def test_from_cells_validation():
    with pytest.raises(errors.NoIdentity):
        LoopTable.from_cells([[2, 1], [1, 2]])
    with pytest.raises(errors.NotLatin):
        LoopTable.from_cells([[1, 1], [2, 2]])
    with pytest.raises(errors.Malformed):
        LoopTable.from_cells([[1, 2], [2]])
    with pytest.raises(errors.Malformed):
        LoopTable.from_cells([[1, 2], [2, 3]])


def test_from_cells_accepts_int_entries_only():
    # True == 1 and 2.0 == 2, so both would pass the Latin check
    for bad in (True, 2.0):
        with pytest.raises(errors.Malformed, match="not an int"):
            LoopTable.from_cells([[1, 2], [2, bad]])
    with pytest.raises(errors.Malformed, match="out of range"):
        LoopTable.from_cells([[1, 2, 3], [2, 3, 1], [3, 1, 4]])
    with pytest.raises(errors.NotLatin):
        LoopTable.from_cells([[1, 2, 3], [2, 3, 1], [3, 1, 1]])
    # the table that builds renders to text that parses back to it
    Q = LoopTable.from_cells([[1, 2], [2, 1]])
    assert parse_table(render(Q)) == Q


def test_equality_ignores_name():
    a = parse_table("2\n1 2\n2 1", name="one")
    b = parse_table("2\n1 2\n2 1", name="two")
    assert a == b and hash(a) == hash(b)


def test_parse_relabels_identity_at_last_position():
    # Klein four-group written with its identity as element 4
    text = "4\n4 3 2 1\n3 4 1 2\n2 1 4 3\n1 2 3 4"
    Q = parse_table(text)
    assert Q.cells[0] == (1, 2, 3, 4)
    assert "relabeled identity 4->1" in Q.name
    assert parse_table(render(Q)) == Q
    from bolkit.structure import check_identity

    assert check_identity(Q, "associative")
    assert check_identity(Q, "commutative")


# parse_table against a plain reference decoder ------------------------------


# refcheck's decoder raises its own TableError; its kinds are bolkit's types
PARSE_ERRORS = {
    "malformed": errors.Malformed,
    "too-large": errors.TooLarge,
    "not-latin": errors.NotLatin,
    "no-identity": errors.NoIdentity,
}


def reference_parse(text, name=None):
    """``refcheck.parse_table``, the reference for ``parse_table``, raising
    the bolkit error type of each refusal with the same message."""
    try:
        return refcheck.parse_table(text, name, MAX_ORDER)
    except refcheck.TableError as exc:
        raise PARSE_ERRORS[exc.kind](str(exc)) from None


def parse_outcome(parse, text, name):
    """(order, cells, name) of the parsed table, or (class, message) of the error."""
    try:
        result = parse(text, name)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, LoopTable):
        return result.order, result.cells, result.name
    return result


# line breaks to ``str.splitlines`` (all whitespace to ``str.split``), then
# separators inside a line
LINE_BREAKS = ("\r\n", "\x0b", "\x0c", "\x1c", "\x85")
SEPARATORS = LINE_BREAKS + ("\t", " ", "\xa0")
BAD_TOKENS = ("+1", "\u0661", "\u00b2", "0", "n+1", "9" * 5000)


def relabeled_tokens(cells, p):
    """The tokens of a Latin square with element x renamed p[x-1]."""
    return [str(len(cells))] + [str(v) for row in refcheck.relabel(cells, p) for v in row]


def damage(tokens, rng, kind=None):
    """The tokens with one fault or unusual spelling, of the given kind or a
    random one."""
    n = int(tokens[0])
    body = tokens[1:]
    if kind is None:
        kind = rng.randrange(8)
    i = rng.randrange(len(body))
    if kind == 1:  # leading zeros, the order token included
        for j in rng.sample(range(len(tokens)), min(3, len(tokens))):
            tokens[j] = rng.choice(("0", "00")) + tokens[j]
        return tokens
    if kind == 2:
        bad = rng.choice(BAD_TOKENS)
        body[i] = str(n + 1) if bad == "n+1" else bad
    elif kind == 3:  # every entry of one value renamed out of range
        v = body[i]
        out = rng.choice(("0", str(n + 1)))
        body = [out if t == v else t for t in body]
    elif kind == 4 and n > 1:  # a duplicate in one row
        r, c = divmod(i, n)
        body[i] = body[r * n + (c + 1) % n]
    elif kind == 5 and n > 1:  # two entries of a row swapped: a duplicate only in columns
        r, c = divmod(i, n)
        j = r * n + (c + 1) % n
        body[i], body[j] = body[j], body[i]
    elif kind == 6:  # '#' inside a data line
        body[i] = rng.choice(("#", body[i] + "#", "#" + body[i]))
    elif kind == 7:
        del body[i]
    return tokens[:1] + body


def layout(tokens, rng):
    """The tokens as text: random separators, rows split across lines, and
    comment lines, some indented, that hold digits of their own."""
    parts = []
    if rng.random() < 0.3:
        parts.append("# a table 1 2\n")
    for t in tokens:
        parts.append(t)
        sep = rng.choice(SEPARATORS)
        if sep in LINE_BREAKS and rng.random() < 0.3:
            sep += rng.choice(("", " ", "\t", "\xa0")) + "# note 3 4" + rng.choice(LINE_BREAKS)
        parts.append(sep)
    return "".join(parts)


def test_parse_table_matches_the_reference_decoder():
    from bolkit.catalog import dihedral_group
    from bolkit.extensions import build_named_example, cyclic_group, elem_abelian_2

    loops = [cyclic_group(1), cyclic_group(2), cyclic_group(5), elem_abelian_2(2), NPA5, dihedral_group(3)]
    squares = [Q.cells for Q in loops] + [load_fixture(FIXTURE_ORDER8).cells]
    squares.append(tuple(tuple((a - b) % 5 + 1 for b in range(5)) for a in range(5)))  # no identity
    rng = random.Random(2006)
    texts = ["", "# only\n", "0\n", "5000\n1", "9" * 5000 + "\n1", "\u0662\n1 2\n2 1", "2\n1 2\n2 1 #"]
    for _ in range(1500):
        cells = rng.choice(squares)
        tokens = relabeled_tokens(cells, rng.sample(range(1, len(cells) + 1), len(cells)))
        if rng.random() < 0.7:
            tokens = damage(tokens, rng)
        texts.append(layout(tokens, rng))
    # order 64, not associative, with the identity written as 2 and as 64
    Q64 = build_named_example("order4n", n=16)
    for e in (2, 64):
        p = [x for x in range(1, 65) if x != e]
        rng.shuffle(p)
        p.insert(0, e)
        text = layout(relabeled_tokens(Q64.cells, p), rng)
        texts.append(text)
        assert parse_table(text).name == f"relabeled identity {e}->1"
    # orders 255 and 256, on either side of the byte encoding of the Latin
    # check, written on one line, so split into tokens at once
    for n in (255, 256):
        tokens = relabeled_tokens(cyclic_group(n).cells, rng.sample(range(1, n + 1), n))
        texts.append(" ".join(tokens))
        for kind in (1, 4, 5):  # leading zeros; a duplicate in a row; one only in columns
            texts.append(" ".join(damage(list(tokens), rng, kind)))
        v = rng.choice(tokens[1:])
        for out in ("0", str(n + 1)):  # every entry of one value out of range
            texts.append(" ".join(tokens[:1] + [out if t == v else t for t in tokens[1:]]))
    kinds = set()
    for text in texts:
        name = rng.choice((None, "t"))
        got = parse_outcome(parse_table, text, name)
        assert got == parse_outcome(reference_parse, text, name), repr(text[:200])
        kinds.add(got[0] if isinstance(got[0], type) else "relabeled" if "relabeled" in (got[2] or "") else "table")
    # every route of the parser is reached
    assert kinds >= {"table", "relabeled", errors.Malformed, errors.NotLatin, errors.NoIdentity, errors.TooLarge}


def test_parse_holds_one_int_object_per_element():
    from bolkit.extensions import cyclic_group

    Z = cyclic_group(512)
    Q = parse_table(render(Z))
    assert Q == Z
    assert len({id(v) for row in Q.cells for v in row}) == 512
