import gc
import io
import pathlib
import re
import time

import pytest
from click.testing import CliRunner

import ldnc
from ldnc import corpus
from ldnc.cli import main
from ldnc.fileformat import parse_network
from ldnc.network import reciprocal

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args))


def path(name):
    return corpus.location(name)


# ---------------------------------------------------------------------------
# version
# ---------------------------------------------------------------------------


def test_version_prints_the_package_version():
    # read from the package itself, so that it works from a source checkout
    result = invoke("--version")
    assert result.exit_code == 0
    assert result.output == f"ldnc, version {ldnc.__version__}\n"


def test_pyproject_declares_the_package_version():
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]*)"$', text, re.M)[1] == ldnc.__version__


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok_for_corpus_network():
    result = invoke("validate", path("twounicast.net"))
    assert result.exit_code == 0
    assert "ok" in result.output


def test_validate_ok_for_every_corpus_network():
    for name in corpus.names():
        if name.endswith(".net"):
            assert invoke("validate", path(name)).exit_code == 0, name


def test_validate_reports_violations(tmp_path):
    bad = tmp_path / "bad.net"
    text = corpus.read("twounicast.net").replace(
        "1 -> 3 gain shift g=2", "1 -> 3 gain [[1,0,0],[0,1,0],[0,0,1]]", 1
    )
    bad.write_text(text)
    result = invoke("validate", str(bad))
    assert result.exit_code == 1
    assert "gain-shape" in result.output
    assert result.output == "violation: gain-shape: edge 1 -> 3 gain is (3, 3), expected (2, 2)\n"


def test_validate_missing_session_endpoint(tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text(corpus.read("twounicast.net").replace("1: 1 -> 5", "1: 1 -> 9"))
    result = invoke("validate", str(bad))
    assert result.exit_code == 1
    assert "session-endpoints" in result.output


def test_malformed_file_exits_two(tmp_path):
    bad = tmp_path / "broken.net"
    bad.write_text("p: 2\nnodes a b\n")
    assert invoke("validate", str(bad)).exit_code == 2
    assert invoke("validate", str(tmp_path / "absent.net")).exit_code == 2


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------


def test_transfer_solving_verdict_and_identity_diagonal():
    result = invoke(
        "transfer", path("twounicast.net"), path("twounicast.code"), "--format", "structured"
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert "verdict solves" in lines
    assert "gamma 1 1 [[1,0],[0,1]]" in lines
    assert "gamma 2 1 [[0,0],[0,0]]" in lines


def test_transfer_detects_non_solving_variant(tmp_path):
    broken = tmp_path / "broken.code"
    text = corpus.read("twounicast.code").replace(
        "D 1: [[1,0],[0,1]]", "D 1: [[0,0],[0,0]]"
    )
    broken.write_text(text)
    result = invoke(
        "transfer", path("twounicast.net"), str(broken), "--format", "structured"
    )
    assert result.exit_code == 0
    assert "verdict does-not-solve" in result.output


def test_transfer_butterfly_solves():
    result = invoke(
        "transfer", path("butterfly.net"), path("butterfly.code"),
        "--format", "structured",
    )
    assert result.exit_code == 0
    assert "verdict solves" in result.output


def test_transfer_on_unlayered_network_exits_one():
    result = invoke("transfer", path("triangle.net"), path("twounicast.code"))
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# reciprocal / unfold
# ---------------------------------------------------------------------------


def test_reciprocal_twice_round_trips(tmp_path):
    once = tmp_path / "r1.net"
    twice = tmp_path / "r2.net"
    assert invoke("reciprocal", path("twounicast.net"), str(once)).exit_code == 0
    assert invoke("reciprocal", str(once), str(twice)).exit_code == 0
    assert twice.read_text() == corpus.read("twounicast.net")
    assert parse_network(once.read_text()) == reciprocal(
        parse_network(corpus.read("twounicast.net"))
    )


def test_unfold_produces_layered_file(tmp_path):
    out = tmp_path / "unfolded.net"
    result = invoke("unfold", path("triangle.net"), "2", str(out))
    assert result.exit_code == 0
    unfolded = parse_network(out.read_text())
    assert len(unfolded.nodes) == 9
    assert unfolded.q == 4
    # the unfolded network is layered even though the original is not
    assert invoke("validate", str(out)).exit_code == 0
    from ldnc.network import detect_layers

    assert detect_layers(unfolded).horizon == 2


# ---------------------------------------------------------------------------
# verify-reciprocity
# ---------------------------------------------------------------------------


def test_verify_reciprocity_flags_all_true_for_corpus_pairs():
    for net_name, code_name in (
        ("twounicast.net", "twounicast.code"),
        ("butterfly.net", "butterfly.code"),
        ("single_edge.net", "single_edge.code"),
    ):
        result = invoke(
            "verify-reciprocity", path(net_name), path(code_name),
            "--format", "structured",
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        for flag in (
            "solves_forward",
            "duality_holds",
            "transpose_solves_reciprocal",
            "solvability_carried",
        ):
            assert f"{flag} true" in lines


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_exhausted_on_zero_gain_edge():
    result = invoke("search", path("zero_edge.net"), "--format", "structured")
    assert result.exit_code == 1
    assert "outcome exhausted" in result.output


def test_search_finds_and_writes_code(tmp_path):
    out = tmp_path / "found.code"
    result = invoke(
        "search", path("single_edge.net"), "--out", str(out),
        "--format", "structured",
    )
    assert result.exit_code == 0
    assert "outcome found" in result.output
    verify = invoke("transfer", path("single_edge.net"), str(out))
    assert verify.exit_code == 0
    assert "solves" in verify.output


def test_search_negative_budget_exits_two():
    # used to print "scanned -5" and exit 1
    result = invoke("search", path("twounicast.net"), "--budget", "-5",
                    "--format", "structured")
    assert result.exit_code == 2
    assert "scanned" not in result.output
    assert "budget must be >= 0" in result.output


def test_search_zero_trials_exits_two():
    result = invoke("search", path("single_edge.net"), "--trials", "0")
    assert result.exit_code == 2
    assert "trials must be >= 1" in result.output


def test_search_on_a_huge_code_space_exits_1_at_once(tmp_path):
    # 32,000,000 free entries over GF(3); the search used to build
    # p**entries and ran for more than 100 s
    net = tmp_path / "huge.net"
    net.write_text("p: 3\nq: 4000\nnodes: a b\nedges:\nsessions: 1: a -> b width 4000\n")
    start = time.perf_counter()
    result = invoke("search", str(net), "--format", "structured")
    assert result.exit_code == 1
    assert result.output == "outcome budget-exceeded\nscanned 1000000\n"
    assert time.perf_counter() - start < 1.0


def test_search_on_a_session_of_width_one_billion_exits_1_at_once(tmp_path):
    # the decoder floor built one power per decoder row, 10^9 of them
    net = tmp_path / "wide.net"
    net.write_text(
        "p: 3\nq: 1000000000\nnodes: a b\nedges:\nsessions: 1: a -> b width 1000000000\n"
    )
    start = time.perf_counter()
    result = invoke("search", str(net), "--format", "structured")
    assert result.exit_code == 1
    assert result.output == "outcome budget-exceeded\nscanned 1000000\n"
    assert time.perf_counter() - start < 1.0


def test_search_with_a_message_longer_than_q_exits_1_at_once(tmp_path):
    # width 4096 over q = 2: no decoder has full row rank, so no trial can
    # solve; each trial used to be drawn and propagated, 0.25 s apiece
    net = tmp_path / "long.net"
    net.write_text("p: 2\nq: 2\nnodes: a b\nedges:\n  a -> b gain shift g=1\n"
                   "sessions:\n  1: a -> b width 4096\n")
    start = time.perf_counter()
    result = invoke("search", str(net), "--trials", "1000000", "--format", "structured")
    assert result.exit_code == 1
    assert result.output == "outcome not-found\nscanned 1000000\n"
    result = invoke("search", str(net), "--format", "structured")
    assert result.exit_code == 1
    assert result.output == "outcome budget-exceeded\nscanned 1000000\n"
    assert time.perf_counter() - start < 1.0


def test_search_with_an_unreachable_destination_exits_1_at_once(tmp_path, monkeypatch):
    # no edge at all, so nothing reaches b and no trial can solve; each
    # trial used to draw and propagate 32,000,000 entries
    from ldnc import search

    def refuse(*args, **kwargs):
        raise AssertionError("drew or propagated")

    monkeypatch.setattr(search, "_randrange_fill", refuse)
    monkeypatch.setattr(search, "_arrivals", refuse)
    net = tmp_path / "edgeless.net"
    net.write_text("p: 3\nq: 4000\nnodes: a b\nedges:\nsessions: 1: a -> b width 4000\n")
    assert len(net.read_bytes()) == 62
    start = time.perf_counter()
    result = invoke("search", str(net), "--trials", "1000000", "--format", "structured")
    assert result.exit_code == 1
    assert result.output == "outcome not-found\nscanned 1000000\n"
    result = invoke("search", str(net), "--format", "structured")
    assert result.exit_code == 1
    assert result.output == "outcome budget-exceeded\nscanned 1000000\n"
    assert time.perf_counter() - start < 1.0


def test_search_refuses_a_candidate_over_the_dense_limit(monkeypatch):
    from ldnc import gf_linalg

    # the parse needs 32 bytes for single_edge.net's 2x2 shift gain, one
    # candidate 64: any limit from 32 to 63 lets the search refuse
    monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES", 32)
    for extra in ([], ["--trials", "1"]):
        result = invoke("search", path("single_edge.net"), *extra)
        assert result.exit_code == 2
        assert result.output.startswith("error: one candidate needs ")
        assert isinstance(result.exception, SystemExit)


def test_search_random_mode_deterministic():
    a = invoke("search", path("single_edge.net"), "--trials", "2000",
               "--seed", "5", "--format", "structured")
    b = invoke("search", path("single_edge.net"), "--trials", "2000",
               "--seed", "5", "--format", "structured")
    assert a.exit_code == b.exit_code
    assert a.output == b.output


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_corpus_messages():
    result = invoke(
        "simulate", path("twounicast.net"), path("twounicast.code"), path("twounicast.msg"),
        "--format", "structured",
    )
    assert result.exit_code == 0
    assert "reconstruction 1 [1,0]" in result.output
    assert "reconstruction 2 [0,1]" in result.output


def test_simulate_rejects_bad_message_file(tmp_path):
    msg = tmp_path / "bad.msg"
    msg.write_text("W 1: [1]\n")
    result = invoke("simulate", path("twounicast.net"), path("twounicast.code"), str(msg))
    assert result.exit_code == 2


@pytest.mark.parametrize("args, expected", [
    (
        ("verify-reciprocity", "single_edge.net", "single_edge.code"),
        "solves_forward: True\nduality_holds: True\ntranspose_solves_reciprocal: True\n"
        "solvability_carried: True\ngamma[1->1]:\n  1 0\n  0 1\n"
        "gamma_reciprocal[1->1]:\n  1 0\n  0 1\n",
    ),
    (
        ("search", "single_edge.net"),
        "outcome: found\nscanned: 103\nindex: 102\nT: 1\nC 1: [[0,1],[1,0]]\n"
        "D 1: [[0,1],[1,0]]\n",
    ),
    (
        ("simulate", "single_edge.net", "single_edge.code", "single_edge.msg"),
        "reconstruction 1: [1,0]\n",
    ),
], ids=["verify-reciprocity", "search", "simulate"])
def test_text_format_output(args, expected):
    result = invoke(args[0], *map(path, args[1:]))
    assert result.exit_code == 0
    assert result.output == expected


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def test_corpus_listing_and_location():
    listing = invoke("corpus")
    assert listing.exit_code == 0
    assert "twounicast.net" in listing.output
    where = invoke("corpus", "twounicast.net")
    assert where.exit_code == 0
    assert pathlib.Path(where.output.strip()).exists()
    assert invoke("corpus", "nope.net").exit_code == 2


def test_validate_network_with_entries_past_int64(tmp_path):
    big = tmp_path / "big.net"
    gain = f"gain [[{2**64 + 1},0],[0,{2**63 + 1}]]"
    big.write_text(corpus.read("single_edge.net").replace("gain shift g=2", gain))
    result = invoke("validate", str(big), "--format", "structured")
    assert result.exit_code == 0, result.output
    assert result.output == "ok true\n"


def test_in_process_runs_release_their_captured_streams():
    def text_streams():
        gc.collect()
        return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())

    before = text_streams()
    for _ in range(20):
        invoke("validate", path("twounicast.net"))
        invoke("validate", path("triangle.net"), "--format", "structured")
    assert text_streams() - before < 5


def test_unfold_over_a_huge_horizon_exits_2_at_once(tmp_path):
    import time

    out = tmp_path / "unfolded.net"
    start = time.perf_counter()
    result = invoke("unfold", path("triangle.net"), "1000000", str(out))
    assert result.exit_code == 2
    assert "bytes" in result.output
    assert not out.exists()
    assert time.perf_counter() - start < 1.0


def test_unfold_with_too_many_nodes_and_edges_exits_2_at_once(tmp_path):
    # 1,000 edgeless nodes at T = 300 used to build a 202 MB unfolding
    import time

    net = tmp_path / "edgeless.net"
    nodes = " ".join(f"n{i}" for i in range(1000))
    net.write_text(f"p: 2\nq: 1\nnodes: {nodes}\nedges:\nsessions: 1: n0 -> n1 width 1\n")
    out = tmp_path / "unfolded.net"
    start = time.perf_counter()
    result = invoke("unfold", str(net), "300", str(out))
    assert result.exit_code == 2
    assert result.output.startswith("error: unfolding over 300 instants has 601000 nodes and edges")
    assert not out.exists()
    assert time.perf_counter() - start < 1.0
