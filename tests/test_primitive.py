"""Primitive sets: certificates, sums, densities, and the set file format."""

import io
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primfield import counting, irreducibles, primitive, sieve
from primfield.brackets import BracketedValue
from primfield.constructions import besicovitch_construct
from primfield.counting import monic_cumulative
from primfield.errors import UsageError, VerificationError
from primfield.fieldpoly import format_index, index_degree, parse_index
from primfield.irreducibles import erdos_sum_irreducibles
from primfield.primitive import (PolySet, density_profile, erdos_sum,
                                 is_primitive, random_primitive_set,
                                 read_set, verify_erdos_density_inequality,
                                 write_set)

from oracles import (Factorization, assert_primitive, divides,
                     erdos_sum_horner, erdos_sum_split, erdos_sum_terms,
                     index_mul,
                     mertens_exact, read_set_lines, sieve_irreducibles,
                     write_set_lines)


def brute_primitive(ps):
    """The witness is_primitive promises: the least member b with a
    proper divisor in the set, then its least such divisor a."""
    members = ps.indices.tolist()
    for b in members:
        for a in members:
            if a != b and divides(ps.q, a, b):
                return False, (a, b)
    return True, None


def polyset_q2(indices, horizon=8):
    return PolySet(2, horizon, tuple(indices))


index_sets_q2 = st.sets(st.integers(2, 511), min_size=0, max_size=40)


@st.composite
def index_sets_q3(draw):
    picks = draw(st.sets(st.tuples(st.integers(1, 5), st.integers(0, 26)),
                         max_size=25))
    return {3**d + (off % 3**d) for d, off in picks}


# ----------------------------------------------------------------------
# PolySet container
# ----------------------------------------------------------------------

def test_polyset_canonicalizes_and_dedups():
    f = parse_index("q=2;1,1,1")[1]
    g = parse_index("q=2;0,1")[1]
    ps = PolySet(2, 5, (f, g, f))
    assert ps.indices.tolist() == [g, f]
    assert len(ps) == 2
    assert ps.degree_counts() == {1: 1, 2: 1}
    assert ps.max_degree == 2


def test_polyset_validation():
    with pytest.raises(UsageError):
        PolySet(2, 5, (1,))  # units carry no divisibility data
    with pytest.raises(UsageError):
        PolySet(2, 2, (parse_index("q=2;1,1,0,1")[1],))  # beyond horizon
    with pytest.raises(UsageError):
        PolySet(3, 5, (6,))  # 6 = 20 in base 3 is not monic
    with pytest.raises(UsageError):
        PolySet(2, 5, (0,))
    with pytest.raises(UsageError):
        PolySet(2, 0, ())


def test_polyset_keeps_canonical_input_and_sorts_the_rest():
    rng = random.Random(5)
    members = sorted(rng.sample(range(2**6, 2**8), 40) + [2, 3, 7])
    shuffled = rng.sample(members, len(members))
    doubled = shuffled + members[::3]
    want = PolySet(2, 7, tuple(members))
    assert want.indices.tolist() == members
    for raw in (shuffled, doubled, np.array(doubled, dtype=np.int64)):
        for given in (tuple(raw), np.array(raw)):
            ps = PolySet(2, 7, given)
            assert ps == want
            assert ps.indices.dtype == np.int64
            assert not ps.indices.flags.writeable
            assert all(type(i) is int for i in ps.indices.tolist())
    # invalid members out of order: the messages name the same member
    for q, horizon, raw, message in (
            (2, 5, (7, 0, 3), "index 0 is not positive"),
            (3, 5, (12, 6, 4), "index 6 has leading base-3 digit != 1"),
            (2, 5, (5, 1, 3), "members must be non-unit (degree >= 1)"),
            (2, 3, (9, 40, 2, 9), "member q=2;0,0,0,1,0,1 exceeds horizon 3")):
        with pytest.raises(UsageError) as err:
            PolySet(q, horizon, raw)
        assert str(err.value) == message


def test_set_file_round_trip():
    ps = polyset_q2({2, 7, 11, 97})
    buf = io.StringIO()
    write_set(ps, buf)
    back = read_set(io.StringIO(buf.getvalue()))
    assert back == ps
    text = "q=2;horizon=6\n# comment\n\n0,1\n13\n"
    got = read_set(io.StringIO(text))
    assert got.indices.tolist() == [2, 13]


@pytest.mark.parametrize("q,index", [
    (2, 2**70 + 12345),               # past any fixed-width integer
    (37, 36 + 10 * 37 + 37**2),       # two-digit coefficients 36, 10, 1
])
def test_set_file_round_trip_wide_members(q, index):
    ps = PolySet(q, 70, (index, q + 1))
    buf = io.StringIO()
    write_set(ps, buf)
    text = buf.getvalue()
    back = read_set(io.StringIO(text))
    assert back == ps and type(back.indices.tolist()[-1]) is int
    again = io.StringIO()
    write_set(back, again)
    assert again.getvalue() == text
    d = index_degree(q, index)
    assert erdos_sum(back) == Fraction(1, q) + Fraction(1, d * q**d)
    rows = density_profile(back)
    assert rows[d - 1].count == 2 and rows[d - 2].count == 1
    assert rows[-1].ratio == Fraction(2, monic_cumulative(q, 70))


def test_members_past_int64_stay_python_ints():
    """Over q = 10^18 + 3 every index of degree >= 2 lies past int64, so
    the members are one object array of Python ints from the file to the
    certificate."""
    q = 10**18 + 3
    x, x2, wide = q, q**2, 5 + 7 * q + q**3      # x, x^2, x^3 + 7x + 5
    ps = PolySet(q, 4, (wide, x2, x))
    assert ps.indices.dtype == object and not ps.indices.flags.writeable
    assert ps.indices.tolist() == [x, x2, wide]
    assert PolySet(q, 4, (x,)).indices.dtype == np.int64
    buf = io.StringIO()
    write_set(ps, buf)
    back = read_set(io.StringIO(buf.getvalue()))
    assert back == ps and back.indices.dtype == object
    assert all(type(i) is int for i in back.indices.tolist())
    assert back.degree_counts() == {1: 1, 2: 1, 3: 1}
    assert is_primitive(back) == (False, (x, x2))
    # x + 1 does not divide x^3 + 7x + 5, whose value at -1 is -3
    assert is_primitive(PolySet(q, 4, (wide, x + 1))) == (True, None)
    assert erdos_sum(back) == sum(Fraction(1, d * q**d) for d in (1, 2, 3))


def test_set_file_errors_carry_line_numbers():
    with pytest.raises(UsageError):
        read_set(io.StringIO(""))
    with pytest.raises(UsageError, match="header"):
        read_set(io.StringIO("hello\n"))
    with pytest.raises(UsageError, match="line 3"):
        read_set(io.StringIO("q=2;horizon=6\n0,1\n1,2\n"))
    with pytest.raises(UsageError, match="duplicate"):
        read_set(io.StringIO("q=2;horizon=6\n0,1\n2\n"))
    rejected = [
        ("q=2;horizon=6\n0,1\nq=3;0,1\n", "line 3: expected q=2, got q=3"),
        ("q=3;horizon=6\nq=3;0,2\n", "line 2: leading coefficient must be 1"),
        ("q=3;horizon=6\nq=3;0,3,1\n",
         "line 2: coefficients must lie in [0, 3)"),
        ("q=3;horizon=6\n0,3,1\n", "line 2: cannot parse polynomial '0,3,1'"),
        ("q=3;horizon=6\n18\n", "line 2: cannot parse polynomial '18'"),
        ("q=2;horizon=6\n0,1\n1\n",
         "set file invalid: members must be non-unit (degree >= 1)"),
        ("q=2;horizon=2\n0,1\nq=2;1,1,0,1\n",
         "set file invalid: member q=2;1,1,0,1 exceeds horizon 2"),
        # a q past exact primality testing: a header line holding a second
        # line break is read by the loop alone, and PolySet words the error
        ("q=318665857834031151167461;horizon=2\n",
         "field order 318665857834031151167461 is at or above"
         " 318665857834031151167461, past exact primality testing"),
        ("q=318665857834031151167461;horizon=2\x0c\n",
         "set file invalid: field order 318665857834031151167461 is at or"
         " above 318665857834031151167461, past exact primality testing"),
    ]
    for text, message in rejected:
        with pytest.raises(UsageError) as info:
            read_set(io.StringIO(text))
        assert str(info.value) == message


def codec_set(q, degrees, per_degree=40, seed=0):
    """Random members of the given degrees, plus both ends of each slice."""
    rng = random.Random(seed)
    members = set()
    for d in degrees:
        members |= {q**d, 2 * q**d - 1}
        members |= {q**d + rng.randrange(q**d) for _ in range(per_degree)}
    return PolySet(q, max(degrees), tuple(members))


def refuse_parse_index(*args, **kwargs):
    """Stands in for parse_index where write_set's output must be read in
    bulk alone, which is for q < 10: larger fields take the line loop."""
    raise AssertionError("parse_index called on a line in write_set's form")


def codec_outcome(read, text):
    try:
        return read(io.StringIO(text))
    except UsageError as exc:
        return str(exc)


@pytest.mark.parametrize("q,degrees", [
    (2, (1, 2, 9)), (3, (1, 5)), (5, (1, 4)), (7, (2, 3)), (11, (1, 3)),
    (37, (1, 2, 4)),                   # two-character coefficients
    (2, (61, 62, 63, 64)),             # int64 through q^(d+1) < 2^63 ...
    (37, (11, 12)),                    # ... Python ints past it
])
def test_set_codec_matches_line_oracle(monkeypatch, q, degrees):
    ps = codec_set(q, degrees)
    got, want = io.StringIO(), io.StringIO()
    write_set(ps, got)
    write_set_lines(ps, want)
    assert got.getvalue() == want.getvalue()
    with monkeypatch.context() as patch:
        if q < 10:      # larger fields are read by the line loop
            patch.setattr(primitive, "parse_index", refuse_parse_index)
        back = read_set(io.StringIO(got.getvalue()))
    assert back == ps
    assert all(type(i) is int for i in back.indices.tolist())
    # a hand-edited line mid-file sends its chunk through the line loop,
    # and a repeat there of a member read in bulk must still be named
    lines = got.getvalue().split("\n")
    mid, earlier = len(lines) // 2, lines[1 + len(lines) // 4]
    noted = lines[:mid] + ["# note"] + lines[mid:]
    repeated = lines[:mid] + ["# note", earlier] + lines[mid:]
    for chunk in (16, primitive._TEXT_CHUNK):
        monkeypatch.setattr(primitive, "_TEXT_CHUNK", chunk)
        for edited in (noted, repeated):
            text = "\n".join(edited)
            want = codec_outcome(read_set_lines, text)
            assert codec_outcome(read_set, text) == want
        assert want == f"line {mid + 2}: duplicate member {earlier!r}"


@pytest.mark.parametrize("q,degrees", [
    (2, (1, 2, 9)),
    (37, (1, 2, 4)),                   # padded two-character coefficients
    (2, (61, 62, 63, 64)),             # int64, then the object-array path
])
def test_set_writer_matches_line_oracle_across_blocks(monkeypatch, q, degrees):
    """A bound of one byte (a line per block) or of five of the longest
    lines cuts the degrees into many blocks, the last of a degree often
    shorter than the rest; the text must not change."""
    ps = codec_set(q, degrees)
    want = io.StringIO()
    write_set_lines(ps, want)
    longest = max(map(len, want.getvalue().splitlines(keepends=True)))
    for bound in (1, 5 * longest):
        monkeypatch.setattr(primitive, "_TEXT_CHUNK", bound)
        got = io.StringIO()
        write_set(ps, got)
        assert got.getvalue() == want.getvalue()


@pytest.fixture(scope="module")
def big_set_text():
    """Every degree-16 polynomial over F_2 and one of degree 17: eleven
    writer blocks (ten of at most 6,898 38-byte lines, then the degree-17
    line), and 2.5 MB of text, several reader chunks."""
    ps = PolySet(2, 17, tuple(range(2**16, 2**17)) + (2**17 + 5,))
    got, want = io.StringIO(), io.StringIO()
    write_set(ps, got)
    write_set_lines(ps, want)
    assert got.getvalue() == want.getvalue()
    assert len(got.getvalue()) > 2 * primitive._TEXT_CHUNK
    return ps, got.getvalue()


def test_set_codec_round_trips_across_chunks(monkeypatch, big_set_text):
    ps, text = big_set_text
    monkeypatch.setattr(primitive, "parse_index", refuse_parse_index)
    assert read_set(io.StringIO(text)) == ps


@pytest.mark.parametrize("at", [1, 30000])
def test_an_edit_sends_only_its_own_chunk_through_the_loop(
        monkeypatch, big_set_text, at):
    """A comment on line 2, or several chunks in: parse_index reads the
    member lines of the chunk that holds it, and no other line."""
    ps, text = big_set_text
    lines = text.split("\n")
    lines.insert(at, "# note")
    text = "\n".join(lines)
    edited, = (chunk for chunk in primitive._text_chunks(
        io.StringIO(text), primitive._TEXT_CHUNK) if "# note" in chunk)
    assert edited.startswith("q=2;horizon=17\n") == (at == 1)
    want = [line for line in edited.splitlines()
            if not line.startswith(("# note", "q=2;horizon"))]
    parsed = []
    real = primitive.parse_index

    def counting_parse_index(text, **kwargs):
        parsed.append(text)
        return real(text, **kwargs)

    monkeypatch.setattr(primitive, "parse_index", counting_parse_index)
    assert read_set(io.StringIO(text)) == ps
    assert parsed == want
    assert 0 < len(parsed) < len(ps) // 8


@pytest.mark.parametrize("inserts", [
    [("q=2;0,2,1", -50)],                       # malformed
    [(5, -50)],                                 # repeats line 6
    [("q=2;0,2,1", -50), (5, -60)],             # duplicate comes first
    [("q=2;0,2,1", -60), (5, -50)],             # parse error comes first
    [("# note", -70), ("", -65), ("65600", -50)],    # bare index repeats
    [("1,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1", -50)],  # the last line repeats
])
def test_set_file_errors_past_first_chunk(big_set_text, inserts):
    _, text = big_set_text
    lines = text.split("\n")
    for line, at in inserts:
        lines.insert(at, lines[line] if isinstance(line, int) else line)
    text = "\n".join(lines)
    want = codec_outcome(read_set_lines, text)
    assert isinstance(want, str) and int(want.split()[1][:-1]) > 30000
    assert codec_outcome(read_set, text) == want


MIXED_SET_FILE = (
    "q=3;horizon=4\r\n# comment\r\n\r\n"
    "q=3;0,1\r\n12\r\n1,2,1\n  q=3;2,0,1  \n\n#x\n"
    "q=3;1,1\nq=3;0,0,0,1\n 100\nq=3;2,2,2,1"      # no final newline
)


@pytest.mark.parametrize("chunk", [1, 5, 64, primitive._TEXT_CHUNK])
def test_mixed_set_file_matches_line_oracle(monkeypatch, chunk):
    want = read_set_lines(io.StringIO(MIXED_SET_FILE))
    assert want.indices.tolist() == [3, 4, 11, 12, 16, 27, 53, 100]
    monkeypatch.setattr(primitive, "_TEXT_CHUNK", chunk)
    assert read_set(io.StringIO(MIXED_SET_FILE)) == want


@pytest.mark.parametrize("first,second", [("5", "05"), ("05", "5")])
def test_duplicate_is_named_as_written(first, second):
    text = f"q=37;horizon=2\nq=37;{first},1\nq=37;{second},1\n"
    want = f"line 3: duplicate member 'q=37;{second},1'"
    assert codec_outcome(read_set_lines, text) == want
    assert codec_outcome(read_set, text) == want


@st.composite
def set_file_texts(draw, q):
    """Set files mixing lines in write_set's form with zero-padded, bare,
    blank, comment and malformed lines, joined by assorted line breaks."""
    lines = [f"q={q};horizon=5"]
    for _ in range(draw(st.integers(0, 25))):
        d = draw(st.integers(1, 3))
        index = q**d + draw(st.integers(0, min(q**d - 1, 20)))
        coeffs = format_index(q, index).split(";")[1].split(",")
        kind = draw(st.sampled_from(["canonical"] * 8 + [
            "padded", "bare index", "bare list", "skipped", "malformed"]))
        if kind == "canonical":
            lines.append(format_index(q, index))
        elif kind == "padded":
            k = draw(st.integers(0, d))
            coeffs[k] = "0" + coeffs[k]
            lines.append(f"q={q};" + ",".join(coeffs))
        elif kind == "bare index":
            lines.append(draw(st.sampled_from([str(index), f" {index}"])))
        elif kind == "bare list":
            lines.append(",".join(coeffs))
        elif kind == "skipped":
            lines.append(draw(st.sampled_from(["", " ", "# c", "#"])))
        else:
            lines.append(draw(st.sampled_from([
                f"q={q};", f"q={q};1_0,1", f"q={q};0,,1", f"q={q};0,1,",
                f"q={q};{q},1", f"q={q};0,2", f"q={q};+1,1", "q=2;0,1",
                f"q={q};\u0663,1", "x", "0", "1", str(q), f"q={q};0, 1",
                f"q={q};0,\x0c1"])))
    breaks = st.sampled_from(["\n"] * 4 + ["\r\n", "\r", "\x0c"])
    text = lines[0]
    for line in lines[1:]:
        text += draw(breaks) + line
    return text + draw(st.sampled_from(["", "\n", "\r", "\x0c", " "]))


@pytest.mark.parametrize("q", [3, 7, 37])
@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       chunk=st.sampled_from([1, 3, 16, primitive._TEXT_CHUNK]))
def test_set_file_lines_agree_with_line_oracle(q, data, chunk):
    text = data.draw(set_file_texts(q))
    want = codec_outcome(read_set_lines, text)
    original = primitive._TEXT_CHUNK
    primitive._TEXT_CHUNK = chunk
    try:
        assert codec_outcome(read_set, text) == want
    finally:
        primitive._TEXT_CHUNK = original


# ----------------------------------------------------------------------
# The fixed-width bulk reader (q < 10)
# ----------------------------------------------------------------------

def bulk_lines(reader, text, q):
    a = np.frombuffer(text.encode(), np.uint8)
    canon, index = reader(a, np.flatnonzero(a == ord("\n")), q)
    return canon.tolist(), index.tolist()


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fixed_width_lines_match_the_token_path(q, data):
    """Lines in and out of write_set's form, in any order, with every
    kind of damage to one column.  The oracle is per line: a line is in
    write_set's form iff parse_index reads it and format_index gives the
    same line back."""
    lines = []
    for _ in range(data.draw(st.integers(0, 30))):
        d = data.draw(st.integers(0, 4))
        line = format_index(q, q**d + data.draw(st.integers(0, q**d - 1)))
        at = data.draw(st.integers(0, len(line) - 1))
        lines.append(data.draw(st.sampled_from([
            line, line, line, line[:at] + line[at + 1:],
            line[:at] + data.draw(st.sampled_from(
                [str(q), "9", "0", ",", ";", "q", " ", "\r", "/", ":"]))
            + line[at + 1:], line + ",1", "", "#"])))
    text = "".join(line + "\n" for line in lines)
    canon, index = [], []
    for line in lines:
        try:
            member = parse_index(line, q=q)[1]
        except UsageError:
            member = None
        canon.append(member is not None and format_index(q, member) == line)
        if canon[-1]:
            index.append(member)
    assert bulk_lines(primitive._fixed_width_lines, text, q) == (canon, index)


@pytest.mark.parametrize("line", [
    "q=3;0,3,1",        # a digit >= q
    "q=3;0,9,1",
    "q=3;0,1,0",        # leading 0
    "q=3;0,1,2",        # leading digit > 1
    "q=3;0;1,1",        # missing comma
    "q=3;0,1 1",
    "q=3;0,1,1,",       # stray bytes
    "q=3;0,,1",
    "q=3;0,1\x0c",
    "Q=3;0,1",
    "q=2;0,1",          # another field
    "q=3;0,1\r",        # CRLF
])
@pytest.mark.parametrize("tail", ["\n", ""])
def test_a_malformed_column_hands_its_line_to_the_loop(line, tail):
    members = ["q=3;1,1", "q=3;2,1", "q=3;0,0,1"]
    text = "q=3;horizon=3\n" + "\n".join(members + [line, "q=3;1,0,1"]) + tail
    canon, _ = bulk_lines(primitive._fixed_width_lines, text.split("\n", 1)[1]
                          + "\n", 3)
    assert canon[:4] == [True, True, True, False]
    want = codec_outcome(read_set_lines, text)
    assert codec_outcome(read_set, text) == want


@pytest.mark.parametrize("newline,end", [
    ("\r\n", "\r\n"), ("\r\n", ""), ("\r", "\r"), ("\r", ""),
    ("\n", ""), ("\n", "\r\n"), ("\x0c", "\n"),
])
@pytest.mark.parametrize("extra", ["", "q=7;3,1", "q=7;0,7,1"])
@pytest.mark.parametrize("chunk", [1, 16, primitive._TEXT_CHUNK])
def test_line_breaks_give_the_line_oracle_set_or_error(monkeypatch, newline,
                                                      end, extra, chunk):
    """Other line breaks, an unterminated last line, and a repeat or a
    parse error after them: the same PolySet or the same error text."""
    ps = codec_set(7, (1, 2, 3), per_degree=5)
    buf = io.StringIO()
    write_set(ps, buf)
    lines = buf.getvalue().splitlines() + ([extra] if extra else [])
    text = newline.join(lines) + end
    monkeypatch.setattr(primitive, "_TEXT_CHUNK", chunk)
    want = codec_outcome(read_set_lines, text)
    if not extra:
        assert want == ps
    assert codec_outcome(read_set, text) == want


@pytest.mark.parametrize("q,degrees", [(2, (1, 5, 6, 12)), (5, (1, 2, 3))])
@pytest.mark.parametrize("chunk", [7, 40, 333])
def test_runs_split_across_chunks_read_in_bulk(monkeypatch, q, degrees,
                                               chunk):
    """A chunk ends mid-run and the next opens another run: every line
    is still read in bulk, in order, and the last one is unterminated."""
    ps = codec_set(q, degrees, per_degree=30)
    buf = io.StringIO()
    write_set(ps, buf)
    monkeypatch.setattr(primitive, "_TEXT_CHUNK", chunk)
    monkeypatch.setattr(primitive, "parse_index", refuse_parse_index)
    for text in (buf.getvalue(), buf.getvalue()[:-1]):
        assert read_set(io.StringIO(text)) == ps


def test_unordered_lines_of_one_length_are_gathered():
    """Canonical lines in no order: each length is one gathered matrix,
    and the indices come back in line order."""
    ps = codec_set(3, (1, 2, 4), per_degree=12)
    buf = io.StringIO()
    write_set(ps, buf)
    head, *lines = buf.getvalue().splitlines()
    random.Random(3).shuffle(lines)
    body = "".join(line + "\n" for line in lines)
    canon, index = bulk_lines(primitive._fixed_width_lines, body, 3)
    assert all(canon)
    assert index == [parse_index(line)[1] for line in lines]
    assert read_set(io.StringIO(head + "\n" + body)) == ps


@pytest.mark.parametrize("q", [11, 13])
def test_large_fields_take_the_line_loop(monkeypatch, q):
    """Past q = 9 every member line goes through parse_index, and the
    fixed-width reader is never asked."""
    ps = codec_set(q, (1, 2, 3))
    buf = io.StringIO()
    write_set(ps, buf)
    parsed = []
    real = primitive.parse_index

    def counting_parse_index(text, **kwargs):
        parsed.append(text)
        return real(text, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(primitive, "parse_index", counting_parse_index)
        patch.setattr(primitive, "_fixed_width_lines", None)
        assert read_set(io.StringIO(buf.getvalue())) == ps
    assert parsed == buf.getvalue().splitlines()[1:]
    # a zero-padded repeat of the last degree-1 member
    edited = buf.getvalue() + f"q={q};0{q - 1},1\n"
    want = codec_outcome(read_set_lines, edited)
    assert want == f"line {len(ps) + 2}: duplicate member 'q={q};0{q - 1},1'"
    assert codec_outcome(read_set, edited) == want


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("q,degrees", [(2, (2, 3)), (2, (3, 64)), (3, (1, 2))])
def test_loop_repeat_of_a_bulk_member_is_named(q, degrees, shuffle):
    """A repeat read by the loop of a member read in bulk, in a sorted or
    shuffled file, is named by the line and text of its later copy; a
    member past int64 turns the one repeat check to Python ints."""
    ps = codec_set(q, degrees, per_degree=6)
    buf = io.StringIO()
    write_set(ps, buf)
    head, *lines = buf.getvalue().splitlines()
    if shuffle:
        random.Random(1).shuffle(lines)
    for repeat in lines:
        text = "\n".join([head, *lines, "# edited", " " + repeat + " "])
        want = f"line {len(lines) + 3}: duplicate member {repeat!r}"
        assert codec_outcome(read_set_lines, text) == want
        assert codec_outcome(read_set, text) == want
    wide = format_index(q, q**64 + 1)
    text = "\n".join([head, *lines, "# edited", wide, wide])
    want = codec_outcome(read_set_lines, text)
    assert want == f"line {len(lines) + 4}: duplicate member {wide!r}"
    assert codec_outcome(read_set, text) == want


# ----------------------------------------------------------------------
# Primitivity
# ----------------------------------------------------------------------

def test_is_primitive_known_cases():
    ok, witness = is_primitive(polyset_q2({2, 3, 7, 11, 13}))
    assert ok and witness is None
    ok, witness = is_primitive(polyset_q2({2, 6}))  # x divides x^2 + x
    assert not ok and witness == (2, 6)
    with pytest.raises(VerificationError):
        assert_primitive(polyset_q2({2, 6}))
    assert_primitive(polyset_q2({3, 7}))


@settings(max_examples=60, deadline=None)
@given(indices=index_sets_q2)
def test_methods_agree_with_brute_force_q2(indices):
    ps = polyset_q2(indices)
    want = brute_primitive(ps)
    assert primitive._primitive_by_division(ps) == want
    assert primitive._primitive_by_multiples(ps) == want


@settings(max_examples=30, deadline=None)
@given(indices=index_sets_q3())
def test_methods_agree_with_brute_force_q3(indices):
    ps = PolySet(3, 5, tuple(indices))
    want = brute_primitive(ps)
    assert primitive._primitive_by_division(ps) == want
    assert primitive._primitive_by_multiples(ps) == want


def seeded_sets(q, horizon, seed):
    """A seeded random primitive set, then copies made non-primitive by
    inserting the product of a member with a random monic cofactor."""
    rng = random.Random(seed)
    ps = random_primitive_set(q, horizon, seed, per_degree=6)
    yield ps
    members = ps.indices.tolist()
    for _ in range(4):
        a = rng.choice(members)
        room = horizon - index_degree(q, a)
        if room < 1:
            continue
        f = rng.randint(1, room)
        g = q**f + rng.randrange(q**f)
        yield PolySet(q, horizon, (*members, index_mul(q, a, g)))


def counting_lookups(monkeypatch) -> dict[str, int]:
    """Counts of the multiples pass's mask and sorted lookups."""
    calls = {"mask": 0, "sorted": 0}
    for name, key in (("_least_masked", "mask"), ("_least_hit", "sorted")):
        def spy(*args, _real=getattr(primitive, name), _key=key):
            calls[_key] += 1
            return _real(*args)
        monkeypatch.setattr(primitive, name, spy)
    return calls


@pytest.mark.parametrize("q,horizon", [(2, 9), (3, 6), (5, 4), (7, 3)])
def test_multiples_pass_matches_division_and_brute_force(q, horizon,
                                                         monkeypatch):
    """Also with 4 products a block, where the degree blocks of members
    are cut and, at q = 5 and 7, each cofactor is a block of its own.
    Each set is checked with the mask lookup at every target degree (the
    size rule's bound met exactly), with the sorted one at every target
    degree (missed by one), and with the rule as it counts."""
    real = primitive._products_into
    rules = {"mask": lambda q, sizes: {d: q**d for d in sizes},
             "sorted": lambda q, sizes: {d: q**d - 1 for d in sizes},
             "rule": real}
    verdicts = set()
    for seed in range(12):
        for ps in seeded_sets(q, horizon, seed):
            want = brute_primitive(ps)
            for size in (sieve.BLOCK, 4):
                for name, rule in rules.items():
                    with monkeypatch.context() as patch:
                        patch.setattr(sieve, "BLOCK", size)
                        patch.setattr(primitive, "_products_into", rule)
                        calls = counting_lookups(patch)
                        got = primitive._primitive_by_multiples(ps)
                    assert got == want, (size, name, ps)
                    if name != "rule":
                        other, = calls.keys() - {name}
                        assert calls[name] and not calls[other], calls
            assert primitive._primitive_by_division(ps) == want, ps
            assert all(type(i) is int for i in want[1] or ())
            verdicts.add(want[0])
    assert verdicts == {True, False}


def test_mask_is_built_only_where_products_cover_it(monkeypatch):
    """1,024 members of degree 20 and 1,024 of degree 30 form 2^20
    products into degree 30, which a mask of 2^30 bytes would cover: the
    sorted lookup takes them, within a few megabytes."""
    low = range(2**20 + 2**10, 2**20 + 2**11)          # x^20 + x^10 + r
    ps = PolySet(2, 30, (*low, *range(2**30, 2**30 + 2**10)))
    calls = counting_lookups(monkeypatch)
    tracemalloc.start()
    try:
        got = is_primitive(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # x^30 + 1 = (x^10 + 1)(x^20 + x^10 + 1)
    assert got == (False, (1049601, 1073741825))
    assert got == primitive._primitive_by_division(ps)
    assert calls["sorted"] and not calls["mask"]
    assert peak < 4 * 2**20, peak


def test_witness_is_the_least_multiple_then_its_least_divisor():
    # x | x^4 and x^2+x+1 | x^3+1: the multiple x^3+1 (index 9) comes first
    ps = polyset_q2({2, 7, 9, 16})
    # x and x+1 both divide x^2+x (index 6); x is the lesser
    both = polyset_q2({2, 3, 6})
    for method in (is_primitive, primitive._primitive_by_multiples,
                   primitive._primitive_by_division):
        assert method(ps) == (False, (7, 9))
        assert method(both) == (False, (2, 6))


def test_is_primitive_picks_the_cheaper_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("wrong path")

    # 14 members, 24 cross-degree pairs: products of the degree-1 members
    # with every degree-39 cofactor would number 2^40
    sparse = PolySet(2, 40, (2, 3, *range(2**40 + 1, 2**40 + 24, 2)))
    monkeypatch.setattr(primitive, "_primitive_by_multiples", refuse)
    assert is_primitive(sparse) == brute_primitive(sparse)
    monkeypatch.undo()
    # every monic of degrees 8 and 9: 2^17 pairs against 512 products
    dense = PolySet(2, 9, tuple(range(2**8, 2**10)))
    monkeypatch.setattr(primitive, "_primitive_by_division", refuse)
    assert is_primitive(dense) == (False, (2**8, 2**9))


def test_single_degree_fast_path():
    ps = PolySet(2, 9, tuple(range(2**9, 2**10)))
    assert is_primitive(ps) == (True, None)


# ----------------------------------------------------------------------
# Erdos sums
# ----------------------------------------------------------------------

def test_erdos_sum_matches_manual():
    ps = polyset_q2({2, 3, 7})  # x, x+1 at degree 1; x^2+x+1
    assert erdos_sum(ps) == Fraction(2, 2) + Fraction(1, 4 * 2)
    assert erdos_sum(PolySet(2, 4, ())) == 0


def test_erdos_sum_irreducibles_nested_and_strict():
    prev = None
    for eps in (Fraction(1, 50), Fraction(1, 100), Fraction(1, 200)):
        b = erdos_sum_irreducibles(2, eps)
        assert b.width < eps
        if prev is not None:
            assert prev.lo <= b.lo and b.hi <= prev.hi
        prev = b
    frozen = erdos_sum_irreducibles(2, Fraction(1, 160))
    assert frozen.to_json(12) == {"lo": "1.461468293162",
                                  "hi": "1.467679473288"}
    with pytest.raises(UsageError):
        erdos_sum_irreducibles(2, 0)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_erdos_sum_irreducibles_matches_term_sum(q):
    for eps in (Fraction(2), Fraction(1), Fraction(1, 3), Fraction(2, 7),
                Fraction(1, 50), Fraction(1, 301)):
        cut = math.floor(1 / eps) + 1
        b = erdos_sum_irreducibles(q, eps)
        assert b.lo == erdos_sum_terms(q, cut), eps
        assert b.hi == b.lo + Fraction(1, cut)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_erdos_sum_irreducibles_matches_horner_form(q):
    for eps in (Fraction(1), Fraction(1, 7), Fraction(1, 100),
                Fraction(1, 1000)):
        cut = math.floor(1 / eps) + 1
        assert erdos_sum_irreducibles(q, eps).lo == erdos_sum_horner(q, cut)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_erdos_sum_irreducibles_matches_the_split_over_the_table(q):
    """Each count formed from its own Moebius sum as the split reaches its
    degree gives the sum of the same split over the shared table, at
    cuts that are powers of two (2, 64, 2048) and cuts that are not."""
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 63),
                Fraction(1, 64), Fraction(3, 301), Fraction(1, 1000),
                Fraction(1, 2047)):
        cut = math.floor(1 / eps) + 1
        b = erdos_sum_irreducibles(q, eps)
        assert b.lo == erdos_sum_split(q, cut), eps
        assert b.hi == b.lo + Fraction(1, cut)


def test_the_erdos_sum_neither_reads_nor_grows_the_shared_table(
        monkeypatch):
    """A cold call leaves the shared tables empty, a warm one leaves them
    as they were, and neither reads them."""
    monkeypatch.setattr(irreducibles, "_PI_PRIME", {})
    monkeypatch.setattr(irreducibles, "_CUMULATIVE", {})
    cold = erdos_sum_irreducibles(3, Fraction(1, 500))
    assert irreducibles._PI_PRIME == {} and irreducibles._CUMULATIVE == {}
    irreducibles.pi_cumulative(3, 40)
    table = {q: list(v) for q, v in irreducibles._PI_PRIME.items()}
    sums = {q: list(v) for q, v in irreducibles._CUMULATIVE.items()}

    def unread(q, n):
        raise AssertionError("the shared table was read")
    monkeypatch.setattr(irreducibles, "_pi_primes", unread)
    assert erdos_sum_irreducibles(3, Fraction(1, 500)) == cold
    assert irreducibles._PI_PRIME == table and irreducibles._CUMULATIVE == sums


# ----------------------------------------------------------------------
# Density
# ----------------------------------------------------------------------

def test_density_profile_manual():
    ps = polyset_q2({2, 3, 7}, horizon=3)
    rows = density_profile(ps)
    assert [(r.n, r.count) for r in rows] == [(1, 2), (2, 3), (3, 3)]
    assert rows[0].ratio == Fraction(2, 3)  # M(1) counts the unit too
    assert rows[1].ratio == Fraction(3, 7)
    assert rows[2].running_max == Fraction(2, 3)


def test_density_inequality_matches_direct_oracle(sieve2, sieve3, sieve5):
    """The bracket holds the direct sum, one Factorization and one
    mertens_exact per member, and the verdict is the exact one; where the
    exact value prints it is the direct sum in lowest terms.  The seeded
    sets are spread over 4 to 12 levels D(a)."""
    printed = set()
    for q, horizon, sieve in ((2, 14, sieve2), (3, 7, sieve3),
                              (5, 5, sieve5)):
        degree_one = PolySet(q, horizon, tuple(range(q, 2 * q)))  # (q-1)/q
        spans = []
        for ps in [degree_one] + [random_primitive_set(q, horizon, seed,
                                                       per_degree=5)
                                  for seed in range(8)]:
            report = verify_erdos_density_inequality(ps)
            direct = Fraction(0)
            for i in ps.indices.tolist():
                m = Factorization.of(sieve, i).max_factor_degree
                direct += mertens_exact(q, m) / q**index_degree(q, i)
            assert report.lhs.lo <= direct <= report.lhs.hi
            assert report.ok and direct <= 1
            assert report.size == len(ps)
            if report.exact is not None:
                assert report.to_json()["lhs_exact"] == \
                    f"{direct.numerator}/{direct.denominator}"
            else:
                assert "lhs_exact" not in report.to_json()
            printed.add(report.exact is not None)
            spans.append(len(report.by_level))
        assert min(spans[1:]) >= 4 and max(spans) >= min(10, horizon), spans
    assert printed == {True, False}


def test_primitive_sets_stay_below_one_less_the_rough_density(sieve2):
    """The lemma of verify_erdos_density_inequality: on a primitive set
    the left side, and so the bracket's upper end, is at most 1 - P(D),
    D the top level, so the bracket never holds 1."""
    sets = [PolySet(q, 3, tuple(range(q, 2 * q))) for q in (2, 3, 5)]
    sets += [random_primitive_set(q, horizon, seed, per_degree=5)
             for q, horizon in ((2, 14), (3, 7), (5, 5)) for seed in range(8)]
    sets.append(PolySet(2, 10, tuple(int(i) for d in range(1, 11)
                                     for i in sieve_irreducibles(sieve2, d))))
    sets.append(PolySet(2, 12, tuple(range(2**12, 2**13))))
    sets.append(PolySet(2, 13, (int(sieve_irreducibles(sieve2, 13)[0]),)))
    sets.append(besicovitch_construct(2, Fraction(1, 4), 12).members)
    rough = {}
    for ps in sets:
        assert is_primitive(ps)[0]
        report = verify_erdos_density_inequality(ps)
        top = (ps.q, report.by_level[-1][0])
        if top not in rough:
            rough[top] = mertens_exact(*top)
        assert report.lhs.hi <= 1 - rough[top], top


def test_a_straddling_bracket_is_decided_exactly(monkeypatch):
    """With every P(m) bracketed as [0, 2], the left side's bracket holds
    1, and the verdict is the exact comparison: true for {x, x + 1}, whose
    exact value 1/4 still prints, false for every polynomial of degree 1
    to 14, whose exact value is too long to print."""
    def wide(q):
        for _, _, w in counting.mertens_brackets(q):
            yield 0, 2 << w, w
    monkeypatch.setattr(primitive, "mertens_brackets", wide)
    small = verify_erdos_density_inequality(PolySet(2, 1, (2, 3)))
    assert small.lhs == BracketedValue(0, 2)
    assert small.ok and small.exact == Fraction(1, 4)
    every = verify_erdos_density_inequality(PolySet(2, 14, range(2, 2**15)))
    assert every.lhs.lo == 0 and every.lhs.hi > 1
    assert not every.ok and every.exact is None


@pytest.mark.parametrize("degree", [12, 13])
def test_density_report_forms_the_exact_sum_only_while_it_prints(
        sieve2, monkeypatch, degree):
    """One irreducible of degree 12 has an exact left side with an
    8,028-bit numerator, which prints; one of degree 13, with a 16,218-bit
    numerator, is past
    printing, so no exact sum is formed and the report carries the
    bracket alone."""
    p = int(sieve_irreducibles(sieve2, degree)[0])
    formed = []
    real = primitive.mertens_parts
    monkeypatch.setattr(primitive, "mertens_parts",
                        lambda q: formed.append(q) or real(q))
    report = verify_erdos_density_inequality(PolySet(2, degree, (p,)))
    want = mertens_exact(2, degree) / 2**degree
    assert report.ok and report.exact == (want if degree == 12 else None)
    assert formed == ([2] if degree == 12 else [])
    out = report.to_json()
    assert out["by_level"] == [[degree, 1]]
    assert ("lhs_exact" in out) == (degree == 12)
    assert Fraction(out["lhs"]["lo"]) <= want <= Fraction(out["lhs"]["hi"])
    assert out["lhs_float"] == float(want)


def test_density_inequality_can_fail_off_antichains():
    members = tuple(range(2, 2**9))
    report = verify_erdos_density_inequality(PolySet(2, 8, members))
    assert not report.ok and report.lhs.lo > 1
    assert report.exact > 1


# ----------------------------------------------------------------------
# Random generator
# ----------------------------------------------------------------------

def test_random_primitive_set_deterministic_and_primitive():
    a = random_primitive_set(2, 10, 42, per_degree=6)
    b = random_primitive_set(2, 10, 42, per_degree=6)
    assert a == b
    assert a.max_degree <= 10
    assert_primitive(a)
    c = random_primitive_set(2, 10, 43, per_degree=6)
    assert c != a
    assert max(a.degree_counts().values()) <= 6
