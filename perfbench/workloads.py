"""The four benchmark workloads: generation, program-side loading, items.

Each workload generates its inputs from the seed (see ``gen``), hands
the program only those inputs, and runs a fixed list of items.  An item
is one search query, one sweep instance, one scheme or one CLI command;
it calls ldnc through module attributes (so the tracer's wrappers are
seen), checks the answers and returns a list of problems, empty when
every check passed.

Why each workload exists, which layers it stresses and which it
bypasses, is recorded in ``BENCHMARK.json`` and in each class docstring.
Where a layer does no work, a change to it should move nothing:

=============  ===========  =================  ==================  =========
layer          search-scan  reciprocity-sweep  unfold-equivalence  cli-files
=============  ===========  =================  ==================  =========
search         ~all         large              none                small
network        tiny         medium             small (lookups)     small
coding         tiny         large              large (simulate)    medium
reciprocity    none         medium             none                small
layering       none         none               large               small
fileformat     set-up only  set-up only        set-up only         large
cli            none         none               none                medium
=============  ===========  =================  ==================  =========
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from ldnc import cli, coding, fileformat, layering, reciprocity, search
from ldnc.errors import CodeBindingError, InvalidNetworkError, LdncError, ParseError
from ldnc.gf_linalg import GfMatrix

import gen

# the package re-exports the network() factory under the submodule's name
network = importlib.import_module("ldnc.network")

CHUNK = 1 << 16  # candidates per batched scan chunk in ldnc.search


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def kernel_cost(ln) -> tuple[int, int]:
    """Multiply-adds and array bytes per candidate of the batched scan.

    Derived from the network's shapes the way ``_scan_chunk`` propagates:
    every session's influence goes through every reachable edge, relay
    and decoder.  This is an upper bound that ignores the per-session
    early exit, and it is computed, not measured.
    """
    q = ln.base.q
    sessions = ln.base.sessions_sorted()
    free = search.free_entry_count(ln)
    in_edges = {v: ln.base.in_edges(v) for v in ln.base.nodes}
    ops, nbytes = 0, 8 * free
    for sl in sessions:
        wl = ln.message_length(sl)
        influence = {sl.source}
        arrived: set = set()
        for layer in range(1, ln.horizon + 1):
            arrived = set()
            for v in ln.nodes_at(layer):
                terms = sum(1 for e in in_edges[v] if e.src in influence)
                ops += terms * q * q * wl
                nbytes += (2 * terms + 1) * q * wl * 8 if terms else 0
                if terms:
                    arrived.add(v)
            if layer < ln.horizon:
                influence = arrived
                ops += len(arrived) * q * q * wl
                nbytes += 2 * len(arrived) * q * wl * 8
        for sk in sessions:
            wk = ln.message_length(sk)
            if sk.destination in arrived:
                ops += wk * q * wl
                nbytes += 2 * wk * wl * 8
            else:
                nbytes += wk * wl * 8
    return ops, nbytes


class Workload:
    name = ""
    tracer = None  # set by the runner during traced passes

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.generate()

    # -- overridden by each workload ------------------------------------
    def generate(self) -> None:
        """Build the inputs from ``self.rng``; benchmark-side only."""

    def program_inputs(self) -> list[tuple[str, bool]]:
        """(network text, layered?) pairs the program loads at set-up."""
        return []

    def load(self) -> None:
        """Hand the inputs to ldnc and precompute the expected answers."""

    def items(self) -> list[tuple[str, object]]:
        """(item id, callable(counts) -> problems) in run order."""
        return []

    def mix(self, counts: Counter) -> dict:
        """Summary of the generated mix, given one pass's counts."""
        return {}

    def digest(self) -> str:
        """Fingerprint of everything generated, for the determinism check."""
        return _digest({k: v for k, v in vars(self).items() if k not in ("rng", "workdir")})


def record_search(counts: Counter, ln, result, budget: int, cost) -> None:
    """Count one exhaustive search: outcome, candidates, chunks, computed work."""
    bound = min(search.candidate_count(ln), budget)
    counts["search.queries"] += 1
    counts["search.candidates"] += result.scanned
    counts[f"search.outcome.{result.outcome}"] += 1
    if result.outcome == "found":
        counts["search.hits"] += 1
        evaluated = min(math.ceil(result.scanned / CHUNK) * CHUNK, bound)
    else:
        evaluated = result.scanned
    chunks = math.ceil(evaluated / CHUNK)
    counts["search.chunks"] += chunks
    # the `if not ok.any()` exit can only fire after a session that is not
    # the last, in a chunk with no solving candidate
    if len(ln.base.sessions) > 1:
        counts["search.chunks_early_exit_possible"] += chunks - (result.outcome == "found")
    ops, nbytes = cost
    counts["search.ops_computed"] += ops * evaluated
    counts["search.chunk_bytes_computed"] += nbytes * evaluated


def check_search(ln, result, budget, problems, expect=None) -> None:
    """Outcome, scan count and re-verification of one exhaustive search."""
    space = search.candidate_count(ln)
    bound = min(space, budget)
    if expect is not None and result.outcome != expect:
        problems.append(f"outcome {result.outcome}, expected {expect}")
    if result.outcome == "found":
        if result.scanned != result.index + 1 or result.index >= bound:
            problems.append(f"found index {result.index} with scanned {result.scanned}")
        if not coding.is_solving(ln, result.code):
            problems.append("found code does not solve")
    elif result.outcome == "exhausted":
        if bound != space or result.scanned != space:
            problems.append(f"exhausted after {result.scanned} of {space}")
    elif result.outcome == "budget-exceeded":
        if bound == space or result.scanned != budget:
            problems.append(f"budget-exceeded after {result.scanned} (budget {budget})")
    else:
        problems.append(f"unknown outcome {result.outcome}")


# ---------------------------------------------------------------------------
# search-scan
# ---------------------------------------------------------------------------


class SearchScan(Workload):
    """Mid-size exhaustive searches; the batched scan does the work.

    The query mix is fixed and only the (invertible) gains and session
    endpoints vary with the seed, so the scan work is nearly
    seed-independent: a query either covers a space of at most one chunk
    (found or exhausted, same cost either way) or stops at a budget no
    larger than p ** (free - decoder entries), below which no solving
    index can exist because decoders are the most significant digits.
    """

    name = "search-scan"
    TWOUNICAST_BUDGET = 1 << 17
    TWOUNICAST_FIRST_HIT = 6_723_942
    # (count, p, q, layer sizes, sessions, budget or None for the full space);
    # the quarter-chunk classes are many and alike, so the median item is
    # one of them whatever the seed
    MIX = [
        (4, 2, 2, [1, 2, 1], 1, None),
        (2, 2, 2, [2, 2, 2], 2, 1 << 16),
        (2, 3, 2, [1, 2, 1], 1, 1 << 16),
        (8, 2, 4, [2, 2], 2, None),
        (16, 2, 2, [1, 1, 1, 1], 1, 1 << 14),
        (8, 2, 2, [1, 3, 1], 1, 1 << 14),
    ]

    def generate(self):
        twounicast = (self.root / "src/ldnc/corpus/twounicast.net").read_text()
        self.queries = [("twounicast", twounicast, self.TWOUNICAST_BUDGET)]
        for count, p, q, sizes, n_sessions, budget in self.MIX:
            for _ in range(count):
                spec = gen.layered(self.rng, p, q, sizes, n_sessions, invertible=True)
                space = p ** spec.free_entries()
                if budget is not None and budget > p ** (spec.free_entries() - spec.decoder_entries()):
                    raise ValueError(f"budget {budget} could reach a solving index")
                self.queries.append((f"p{p}q{q}-{len(self.queries)}", spec.text(), budget or space))

    def program_inputs(self):
        return [(text, True) for _, text, _ in self.queries]

    def load(self):
        self.loaded = []
        for qid, text, budget in self.queries:
            ln = network.detect_layers(fileformat.parse_network(text))
            space = search.candidate_count(ln)
            expect = None
            if qid == "twounicast":
                expect = "found" if budget > self.TWOUNICAST_FIRST_HIT else "budget-exceeded"
            elif budget < space:
                expect = "budget-exceeded"
            self.loaded.append((qid, ln, budget, expect, kernel_cost(ln)))

    def items(self):
        return [(qid, self._item(qid, ln, budget, expect, cost))
                for qid, ln, budget, expect, cost in self.loaded]

    def _item(self, qid, ln, budget, expect, cost):
        def run(counts):
            problems = []
            result = search.exhaustive_search(ln, budget=budget)
            record_search(counts, ln, result, budget, cost)
            check_search(ln, result, budget, problems, expect)
            if qid == "twounicast" and result.outcome == "found" \
                    and result.index != self.TWOUNICAST_FIRST_HIT:
                problems.append(f"twounicast first hit {result.index}")
            return problems
        return run

    def mix(self, counts):
        return _search_mix([ln for _, ln, *_ in self.loaded], counts)


def _search_mix(networks, counts) -> dict:
    queries = counts["search.queries"] or 1
    free = Counter(search.free_entry_count(ln) for ln in networks)
    return {
        "free_entries_hist": dict(sorted(free.items())),
        "found_share": counts["search.outcome.found"] / queries,
        "exhausted_share": counts["search.outcome.exhausted"] / queries,
        "budget_exceeded_share": counts["search.outcome.budget-exceeded"] / queries,
        "early_exit_possible_chunk_share_est": (
            counts["search.chunks_early_exit_possible"] / max(counts["search.chunks"], 1)
        ),
        "nodes": sum(len(ln.base.nodes) for ln in networks),
        "edges": sum(len(ln.base.edges) for ln in networks),
    }


# ---------------------------------------------------------------------------
# reciprocity-sweep
# ---------------------------------------------------------------------------


class ReciprocitySweep(Workload):
    """Hundreds of tiny layered instances a pass, each code space scanned to its end.

    Per-call overhead dominates: layout, digit decode, detect_layers, the
    code-network equality check and the one-candidate GfMatrix path of
    random_search and transfer_matrices.
    """

    name = "reciprocity-sweep"
    REPEATS = 2  # instances per shape
    RANDOM_CODES = 2
    TRIALS = 6

    @staticmethod
    def templates() -> list[tuple[int, int, tuple[int, ...], int]]:
        """Every (p, q, layer sizes, sessions) shape within the entry cap.

        GF(2) instances keep at most 12 free entries and GF(3) ones at
        most 8, so every code space fits in one partial chunk.  The seed
        picks gains and endpoints, never the shape, so the mix is the same
        for every seed.
        """
        out = []
        for p, cap in ((2, 12), (3, 8)):
            for q in (1, 2):
                for hops in (1, 2, 3):
                    for sizes in itertools.product((1, 2, 3), repeat=hops + 1):
                        for n_sessions in (1, 2, 3):
                            free = 2 * q * hops * n_sessions + q * q * sum(sizes[1:-1])
                            if free <= cap:
                                out.append((p, q, sizes, n_sessions))
        return out

    def generate(self):
        rng = self.rng
        self.instances = []
        for p, q, sizes, n_sessions in self.templates() * self.REPEATS:
            spec = gen.layered(rng, p, q, list(sizes), n_sessions, invertible=True)
            space = p ** spec.free_entries()
            picks = [rng.randrange(space) for _ in range(self.RANDOM_CODES)]
            self.instances.append((spec, picks))

    def program_inputs(self):
        return [(spec.text(), True) for spec, _ in self.instances]

    def load(self):
        self.loaded = []
        for i, (spec, picks) in enumerate(self.instances):
            net = fileformat.parse_network(spec.text())
            ln = network.detect_layers(net)
            costs = (kernel_cost(ln), kernel_cost(network.reciprocal_layered(ln)))
            self.loaded.append((f"inst{i}", net, ln, picks, costs))

    def items(self):
        return [(iid, self._item(net, picks, costs)) for iid, net, _, picks, costs in self.loaded]

    def _item(self, net, picks, costs):
        def run(counts):
            problems = []
            counts["network.nodes_in"] += len(net.nodes)
            counts["network.edges_in"] += len(net.edges)
            ln = network.detect_layers(net)
            space = search.candidate_count(ln)
            fwd = search.exhaustive_search(ln, budget=space)
            record_search(counts, ln, fwd, space, costs[0])
            check_search(ln, fwd, space, problems)
            rln = network.reciprocal_layered(ln)
            rev = search.exhaustive_search(rln, budget=space)
            record_search(counts, rln, rev, space, costs[1])
            check_search(rln, rev, space, problems)
            if fwd.outcome != rev.outcome:
                problems.append(f"forward {fwd.outcome} but reciprocal {rev.outcome}")
            for layered_net, result in ((ln, fwd), (rln, rev)):
                if result.outcome == "found":
                    rep = reciprocity.verify_reciprocity(layered_net, result.code)
                    if not (rep.duality_holds and rep.solves_forward
                            and rep.transpose_solves_reciprocal):
                        problems.append("found code fails reciprocity")
                    counts["reciprocity.duality_failures"] += not rep.duality_holds
            for index in picks:
                code = search.candidate_code(ln, index)
                rep = reciprocity.verify_reciprocity(ln, code)
                counts["reciprocity.duality_failures"] += not rep.duality_holds
                if not (rep.duality_holds and rep.solvability_carried):
                    problems.append(f"random code {index} breaks duality")
                if rep.solves_forward and (fwd.outcome != "found" or index < fwd.index):
                    problems.append(f"code {index} solves below the first hit")
            rs = search.random_search(ln, trials=self.TRIALS, seed=7)
            counts["search.random_queries"] += 1
            counts["search.candidates"] += rs.scanned
            if rs.outcome == "found":
                counts["search.random_hits"] += 1
                if fwd.outcome != "found" or not coding.is_solving(ln, rs.code):
                    problems.append("random search found a code the scan says cannot exist")
            elif rs.outcome != "not-found":
                problems.append(f"random search outcome {rs.outcome}")
            return problems
        return run

    def mix(self, counts):
        networks = [ln for _, _, ln, _, _ in self.loaded]
        out = _search_mix(networks, counts)
        out["sessions_hist"] = dict(sorted(Counter(len(ln.base.sessions) for ln in networks).items()))
        out["hops_hist"] = dict(sorted(Counter(ln.horizon for ln in networks).items()))
        return out


# ---------------------------------------------------------------------------
# unfold-equivalence
# ---------------------------------------------------------------------------


class UnfoldEquivalence(Workload):
    """Arbitrary networks with cycles and chords, unfolded and simulated.

    layering and coding.simulate work on q(T+2)-square matrices; search
    does nothing here.
    """

    name = "unfold-equivalence"
    SCHEMES = 1000
    COLUMNS = 16
    # (p, q, horizon, nodes, chords), cycled over the schemes; the seed
    # picks which chords, the gains, the session endpoints and the scheme
    SHAPES = [(2, 1, 2, 3, 2), (3, 2, 3, 4, 3), (2, 2, 4, 5, 4), (3, 1, 3, 6, 5),
              (2, 3, 2, 4, 3), (3, 2, 2, 5, 4), (2, 1, 4, 6, 5), (3, 3, 3, 3, 2)]

    def generate(self):
        rng = self.rng
        self.cases = []
        for i in range(self.SCHEMES):
            p, q, horizon, n_nodes, chords = self.SHAPES[i % len(self.SHAPES)]
            spec = gen.arbitrary(rng, p, q, n_nodes, chords, dual_role=i % 2 == 1)
            sch = gen.scheme(rng, spec, horizon)
            msgs = [gen.rand_matrix(rng, p, w * horizon, self.COLUMNS)
                    for _, _, _, w in spec.sessions]
            self.cases.append((spec, sch, msgs))

    def program_inputs(self):
        return [(spec.text(), False) for spec, _, _ in self.cases]

    def load(self):
        self.loaded = []
        for i, (spec, sch, msgs) in enumerate(self.cases):
            net = fileformat.parse_network(spec.text())
            fm = net.field
            scheme = layering.UnlayeredLinearScheme(
                horizon=sch.horizon,
                node_encoders={k: GfMatrix.from_rows(fm, v) for k, v in sch.encoders.items()},
                decoders={k: GfMatrix.from_rows(fm, v) for k, v in sch.decoders.items()},
            )
            messages = [GfMatrix.from_rows(fm, m) for m in msgs]
            self.loaded.append((f"scheme{i}", net, scheme, messages))

    def items(self):
        return [(sid, self._item(net, scheme, messages))
                for sid, net, scheme, messages in self.loaded]

    def _item(self, net, scheme, messages):
        def run(counts):
            problems = []
            counts["network.nodes_in"] += len(net.nodes)
            counts["network.edges_in"] += len(net.edges)
            un = layering.unfold(net, scheme.horizon)
            counts["layering.unfolded_nodes"] += len(un.base.nodes)
            counts["layering.unfolded_q_max"] = max(counts["layering.unfolded_q_max"], un.base.q)
            lifted = layering.lift_code(net, scheme)
            layered_out = coding.simulate(un, lifted, messages)
            counts["coding.simulate.columns"] += messages[0].cols
            direct_out = layering.simulate_unlayered(net, scheme, messages)
            if layered_out != direct_out:
                problems.append("layered simulation differs from the time-domain run")
            back = layering.project_code(lifted)
            if not _schemes_equal(net, back, scheme):
                problems.append("project_code(lift_code(s)) != s")
            return problems
        return run

    def mix(self, counts):
        return {
            "nodes_hist": dict(sorted(Counter(len(n.nodes) for _, n, _, _ in self.loaded).items())),
            "edges": sum(len(n.edges) for _, n, _, _ in self.loaded),
            "dual_role_share": sum(len(n.sessions) > 1 for _, n, _, _ in self.loaded) / len(self.loaded),
            "unfolded_q_max": counts["layering.unfolded_q_max"],
            "unfolded_nodes": counts["layering.unfolded_nodes"],
        }


def _schemes_equal(net, a, b) -> bool:
    """Scheme equality with absent encoders read as zero maps."""
    if a.horizon != b.horizon or set(a.decoders) != set(b.decoders):
        return False
    if any(a.decoders[k] != b.decoders[k] for k in a.decoders):
        return False
    for v in net.nodes:
        width = layering.message_block_width(net, a.horizon, v)
        for m in range(a.horizon):
            shape = (net.q, width + net.q * m)
            ea, eb = a.node_encoders.get((v, m)), b.node_encoders.get((v, m))
            xa = ea.to_array() if ea is not None else np.zeros(shape, dtype=np.int64)
            xb = eb.to_array() if eb is not None else np.zeros(shape, dtype=np.int64)
            if not np.array_equal(xa, xb):
                return False
    return True


# ---------------------------------------------------------------------------
# cli-files
# ---------------------------------------------------------------------------


class CliFiles(Workload):
    """CLI commands on corpus and generated files, in process.

    The only workload where fileformat tokenizing, parsing and
    serializing and cli dispatch do the work; reads sit beside writes.
    """

    name = "cli-files"
    # the 36 random searches cost alike and sit mid-distribution, so the
    # median item is one of them whatever the seed
    SMALL = 18
    DENSE = 6
    UNFOLD = 8

    def generate(self):
        rng = self.rng
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, str] = {}
        corpus = self.root / "src/ldnc/corpus"
        for name in ("twounicast.net", "twounicast.code", "twounicast.msg", "butterfly.net",
                     "butterfly.code", "zero_edge.net", "triangle.net", "single_edge.net"):
            self.files[name] = (corpus / name).read_text()
        self.commands: list[tuple[str, list[str]]] = []

        def put(name, text):
            self.files[name] = text
            return name

        for i in range(self.SMALL):
            spec = gen.layered(rng, 2 + i % 2, 2, [2, 1 + i % 3, 2], 2)
            net = put(f"small{i}.net", spec.text())
            code = put(f"small{i}.code", gen.code_text(spec, rng))
            self.commands += [
                (f"transfer-small{i}", ["transfer", net, code]),
                (f"verify-small{i}", ["verify-reciprocity", net, code]),
                (f"search-small{i}", ["search", net, "--trials", "20", "--seed", str(i)]),
                (f"search-small{i}b", ["search", net, "--trials", "20", "--seed", str(100 + i)]),
            ]
            if i % 3 == 0:
                msg = put(f"small{i}.msg", gen.message_text(spec, rng))
                self.commands.append((f"simulate-small{i}", ["simulate", net, code, msg]))
        for i in range(self.DENSE):
            spec = gen.layered(rng, 2, 16, [3, 4, 4, 3], 2)
            net = put(f"dense{i}.net", spec.text())
            code = put(f"dense{i}.code", gen.code_text(spec, rng))
            self.commands += [
                (f"validate-dense{i}", ["validate", net]),
                (f"transfer-dense{i}", ["transfer", net, code]),
            ]
        for i in range(self.UNFOLD):
            spec = gen.arbitrary(rng, 2 + i % 2, 4, 5, 6, dual_role=True)
            net = put(f"arb{i}.net", spec.text())
            out = f"arb{i}.unfolded.net"
            self.commands += [
                (f"unfold-arb{i}", ["unfold", net, "4", out]),
                (f"validate-unfolded{i}", ["validate", out]),
                (f"reciprocal-unfolded{i}", ["reciprocal", out, f"arb{i}.rev.net"]),
            ]
        bad = gen.layered(rng, 2, 2, [1, 1], 1)
        bad.edges.append((bad.nodes[0], bad.nodes[0], gen.rand_matrix(rng, 2, 2, 2)))
        put("invalid.net", bad.text())
        put("malformed.code", "T: 2\nC 1: [[1,0],[0\n")
        self.commands += [
            ("transfer-twounicast", ["transfer", "twounicast.net", "twounicast.code"]),
            ("simulate-twounicast",
             ["simulate", "twounicast.net", "twounicast.code", "twounicast.msg"]),
            ("verify-butterfly", ["verify-reciprocity", "butterfly.net", "butterfly.code"]),
            ("validate-triangle", ["validate", "triangle.net"]),
            ("unfold-triangle", ["unfold", "triangle.net", "2", "triangle.unfolded.net"]),
            ("reciprocal-twounicast", ["reciprocal", "twounicast.net", "twounicast.rev.net"]),
            ("search-zero-edge", ["search", "zero_edge.net", "--trials", "5"]),
            ("search-single-edge", ["search", "single_edge.net", "--trials", "20", "--seed", "2"]),
            ("validate-invalid", ["validate", "invalid.net"]),
            ("transfer-malformed", ["transfer", "twounicast.net", "malformed.code"]),
        ]
        for name, text in self.files.items():
            (self.workdir / name).write_text(text)

    def program_inputs(self):
        # the invalid, triangle and arbitrary networks are not layered
        return [(text, not (name in ("invalid.net", "triangle.net") or name.startswith("arb")))
                for name, text in sorted(self.files.items()) if name.endswith(".net")]

    def load(self):
        """Compute each command's expected exit code, stdout and written files."""
        self.expected = {}
        written: dict[str, str] = {}

        def read(name):
            return written.get(name, self.files.get(name))

        for cid, argv in self.commands:
            cmd, args = argv[0], argv[1:]
            code, lines, files = _expected_cli(cmd, args, read)
            written.update(files)
            self.expected[cid] = (code, "".join(line + "\n" for line in lines), files)
        self.bytes_in = sum(len(t) for t in self.files.values())
        self.bytes_written = sum(len(t) for t in written.values())

    def items(self):
        runner = CliRunner()
        return [(cid, self._item(runner, cid, argv)) for cid, argv in self.commands]

    def _item(self, runner, cid, argv):
        cmd = argv[0]
        paths = [str(self.workdir / a) if a in self.files or a.endswith(".net") else a
                 for a in argv[1:]]
        args = [cmd, *paths, "--format", "structured"] if cmd not in ("reciprocal", "unfold") \
            else [cmd, *paths]
        want_code, want_out, want_files = self.expected[cid]
        want_out = want_out.replace("@OUT@", str(self.workdir) + "/")

        def run(counts):
            problems = []
            counts[f"cli.{cmd}.calls"] += 1
            if self.tracer is None:
                result = runner.invoke(cli.main, args)
            else:
                with self.tracer.span(f"cli.{cmd}"):
                    result = runner.invoke(cli.main, args)
            counts[f"cli.{cmd}.exit_nonzero"] += result.exit_code != 0
            if result.exception is not None and not isinstance(result.exception, SystemExit):
                problems.append(f"raised {result.exception!r}")
            if result.exit_code != want_code:
                problems.append(f"exit {result.exit_code}, expected {want_code}")
            if result.stdout != want_out:
                problems.append("stdout differs from the library's answer")
            for name, text in want_files.items():
                if (self.workdir / name).read_text() != text:
                    problems.append(f"{name} differs from the library's answer")
            return problems
        return run

    def mix(self, counts):
        return {
            "commands": dict(sorted(Counter(argv[0] for _, argv in self.commands).items())),
            "expected_exit_codes": dict(sorted(Counter(
                str(e[0]) for e in self.expected.values()).items())),
            "file_bytes_in": self.bytes_in,
            "file_bytes_written": self.bytes_written,
            "largest_file_bytes": max(len(t) for t in self.files.values()),
        }


def _expected_cli(cmd, args, read):
    """The library's own answer to one structured CLI command.

    Returns (exit code, stdout lines, {written file: text}); ``@OUT@``
    stands for the work directory in ``written`` lines.
    """
    lit = fileformat.matrix_literal
    try:
        if cmd == "validate":
            report = network.validate(fileformat.parse_network(read(args[0])))
            lines = [f"ok {str(report.ok).lower()}"]
            lines += [f"violation {v.kind} {v.message}" for v in report.violations]
            return (0 if report.ok else 1), lines, {}
        if cmd == "reciprocal":
            text = fileformat.serialize_network(
                network.reciprocal(fileformat.parse_network(read(args[0]))))
            return 0, [f"written @OUT@{args[1]}"], {args[1]: text}
        if cmd == "unfold":
            un = layering.unfold(fileformat.parse_network(read(args[0])), int(args[1]))
            return 0, [f"written @OUT@{args[2]}"], {args[2]: fileformat.serialize_network(un.base)}
        ln = network.detect_layers(fileformat.parse_network(read(args[0])))
        header = [f"p {ln.base.field.p}", f"q {ln.base.q}", f"horizon {ln.horizon}",
                  f"sessions {len(ln.base.sessions)}"]

        def grid(gamma, label):
            ids = [s.id for s in gamma.sessions]
            return [f"{label} {l} {k} {lit(gamma.entry(l, k))}" for l in ids for k in ids]

        if cmd == "search":
            trials, seed = int(args[2]), int(args[4]) if len(args) > 4 else 0
            result = search.random_search(ln, trials=trials, seed=seed)
            lines = [f"outcome {result.outcome}", f"scanned {result.scanned}"]
            if result.outcome != "found":
                return 1, lines, {}
            lines.append(f"index {result.index}")
            lines += [f"code {line}" for line in fileformat.serialize_code(result.code).splitlines()]
            return 0, lines, {}
        code = fileformat.parse_code(read(args[1]), ln)
        if cmd == "transfer":
            gamma = coding.transfer_matrices(ln, code)
            verdict = "solves" if gamma.is_identity_delta() else "does-not-solve"
            return 0, header + grid(gamma, "gamma") + [f"verdict {verdict}"], {}
        if cmd == "verify-reciprocity":
            rep = reciprocity.verify_reciprocity(ln, code)
            lines = [f"{k} {str(v).lower()}" for k, v in rep.flags().items()]
            return 0, lines + grid(rep.gamma, "gamma") + grid(rep.gamma_reciprocal,
                                                             "gamma_reciprocal"), {}
        if cmd == "simulate":
            messages = fileformat.parse_messages(read(args[2]), ln)
            outs = coding.simulate(ln, code, messages)
            return 0, [
                f"reconstruction {s.id} [{','.join(str(o[i, 0]) for i in range(o.rows))}]"
                for s, o in zip(ln.base.sessions_sorted(), outs)
            ], {}
    except (ParseError, InvalidNetworkError, CodeBindingError, ValueError):
        return 2, [], {}
    except LdncError:
        return 1, [], {}
    raise ValueError(f"no expectation for command {cmd}")


WORKLOADS = {w.name: w for w in (SearchScan, ReciprocitySweep, UnfoldEquivalence, CliFiles)}
