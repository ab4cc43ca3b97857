"""ldnc benchmark: one seeded workload per run, closed loop, one process.

    python3 perfbench/run.py --workload search-scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The benchmark imports ldnc from
that checkout's ``src`` (never an installed copy) and exits with code 2
when there is none.  ldnc is a synchronous library and CLI, so the load
is a closed loop: one single-threaded process runs the workload's fixed
list of items (a *pass*), then the next pass, until ``--seconds`` have
passed.  Every item checks its answers.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the
spans the benchmark records around its calls into ldnc.  The last line
of stdout is one JSON object; the lines before it list every metric by
name with its unit, the environment and the workload's input mix.
Full results and the spans go to ``.bench_out/`` in the checkout.

End-to-end times are reported at a nominal machine speed: between items
the benchmark times a fixed reference computation of its own, and each
item's time is scaled by the reference's nominal time over its median
time around that item (see ``SpeedProbe``).  On a shared 2-CPU host the
raw times of whole passes drift by 15-25% between runs minutes apart,
while the scaled ones stay within a few percent.  A change that slows
the whole process, reference included, is hidden from the scaled times;
the raw ones are in the results file (``raw.*``) for that reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 7
MIN_PASSES = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# Per-layer functions reported by the traced run (busy share and call count).
LAYER_FUNCTIONS = (
    "network.detect_layers", "network.reciprocal_layered",
    "search.exhaustive_search", "search.random_search",
    "coding.transfer_matrices", "coding.is_solving", "coding.simulate",
    "reciprocity.verify_reciprocity", "reciprocity.transpose_code",
    "layering.unfold", "layering.lift_code", "layering.project_code",
    "layering.simulate_unlayered",
    "fileformat.parse_network", "fileformat.serialize_network",
    "fileformat.parse_code", "fileformat.serialize_code",
    "cli.validate", "cli.transfer", "cli.simulate", "cli.verify-reciprocity",
    "cli.reciprocal", "cli.unfold", "cli.search",
)
LAYERS = ("network", "search", "coding", "reciprocity", "layering", "fileformat", "cli", "bench")
CLI_COMMANDS = ("validate", "transfer", "simulate", "verify-reciprocity", "reciprocal",
                "unfold", "search")


class BenchError(Exception):
    """The benchmark cannot run here or found a nondeterminism."""


def bootstrap(root: Path = ROOT):
    """Pin numeric thread pools to one thread and import ldnc from ``root/src``."""
    if not (root / "src" / "ldnc" / "__init__.py").is_file():
        raise BenchError(f"no ldnc sources under {root / 'src'}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (str(HERE), str(root / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import ldnc

    if not Path(ldnc.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"ldnc was imported from {ldnc.__file__}, not from {root / 'src'}")
    return ldnc


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def source_digest(root: Path = ROOT) -> str:
    h = hashlib.sha256()
    for base in (root / "src" / "ldnc", HERE):
        for path in sorted(base.rglob("*")):
            if path.suffix in (".py", ".net", ".code", ".msg") and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path = ROOT) -> str:
    head = _read(root / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(root / ".git" / head[5:]) or "unknown"
    return head or "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import importlib.metadata

    import numpy

    cpu_model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "seed": seed,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "note": "working sets fit in cache; bytes are computed from shapes, not measured",
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


# The host's speed drifts by up to about 20% over seconds to minutes
# (other tenants share the cores).  The benchmark therefore times a fixed
# reference computation of its own between items and scales every
# end-to-end time to the speed at which the reference takes
# REFERENCE_NOMINAL_S.  Raw times are kept in the results file.
REFERENCE_NOMINAL_S = 0.007
PROBE_EVERY_S = 0.08
PROBE_WINDOW = 7  # probes around an item whose median sets its speed


def _reference_work():
    """A fixed computation mixing the kinds of work ldnc does.

    Interpreter loops and dicts, batched and single small numpy products,
    and regex tokenizing of a matrix literal.
    """
    import re

    import numpy as np

    blocks = (np.arange(2048 * 16, dtype=np.int64).reshape(2048, 4, 4) * 7) % 3
    small = (np.arange(36, dtype=np.int64).reshape(6, 6) * 5) % 3
    literal = "[" + ",".join("[" + ",".join(str((i * j) % 3) for j in range(24)) + "]"
                             for i in range(24)) + "]"
    token = re.compile(r"->|[:\[\],=]|[A-Za-z0-9_@.]+")

    def run():
        start = time.perf_counter()
        acc = 0
        for i in range(12000):
            acc += i * i % 7
        table = {}
        for i in range(3000):
            table[i % 97] = table.get(i % 97, 0) + i
        for _ in range(4):
            (np.matmul(blocks, blocks) % 3).any()
        for _ in range(150):
            out = np.zeros((6, 6), dtype=np.int64)
            prod = (small @ small) % 3
            out[1:3] = prod[0:2]
            bool((out == prod).all())
        for _ in range(2):
            ",".join(m.group() for m in token.finditer(literal))
        return time.perf_counter() - start

    return run


class SpeedProbe:
    """Reference timings taken between items, at most every PROBE_EVERY_S."""

    def __init__(self):
        self._run = _reference_work()
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> int:
        """Probe if due; returns the index of the latest probe."""
        if force or time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.samples.append(self._run())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor to nominal speed from the probes around ``index``."""
        lo = max(0, index - PROBE_WINDOW // 2)
        window = self.samples[lo:lo + PROBE_WINDOW]
        return REFERENCE_NOMINAL_S / statistics.median(window)


@dataclass
class Pass:
    """One run of every item: raw wall time, item times, counts, failures."""

    wall_s: float
    item_s: list[float]      # scaled to nominal speed
    raw_item_s: list[float]
    counts: Counter
    failures: list
    speed: float             # median scale factor of the pass


def measure_setup(workload, workdir: Path, probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Fresh interpreters importing ldnc and loading the inputs: (scaled, raw) times."""
    bundle = workdir / "program_inputs.json"
    bundle.write_text(json.dumps(workload.program_inputs()))
    cmd = [sys.executable, str(HERE / "setup_child.py"), str(ROOT), str(bundle)]
    scaled, raw = [], []
    for rep in range(SETUP_REPS + 1):
        for _ in range(PROBE_WINDOW // 2):
            probe.tick(force=True)
        start = time.perf_counter()
        done = subprocess.run(cmd, env=os.environ.copy(), capture_output=True, text=True,
                              timeout=120)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"set-up child failed: {done.stderr.strip()[-500:]}")
        for _ in range(PROBE_WINDOW // 2 + 1):
            index = probe.tick(force=True)
        if rep:  # the first launch only fills the bytecode cache
            raw.append(elapsed)
            scaled.append(elapsed * probe.scale(index - PROBE_WINDOW // 2))
    return scaled, raw


def run_pass(items, tracer=None) -> Pass:
    """Run every item once, probing the machine's speed between items."""
    probe = SpeedProbe()
    counts: Counter = Counter()
    raw, at, failures = [], [], []
    probe.tick(force=True)
    pass_start = time.perf_counter()
    for item_id, fn in items:
        start = time.perf_counter()
        try:
            if tracer is None:
                problems = fn(counts)
            else:
                tracer.item = item_id
                with tracer.span("bench.item"):
                    problems = fn(counts)
        except Exception:  # an item that raises counts as failed, the run goes on
            problems = [traceback.format_exc(limit=3)]
        raw.append(time.perf_counter() - start)
        if problems:
            failures.append((item_id, problems))
        at.append(probe.tick())
    wall = time.perf_counter() - pass_start
    scales = [probe.scale(i) for i in at]
    return Pass(wall, [t * k for t, k in zip(raw, scales)], raw, counts, failures,
                statistics.median(scales))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n * (100 - pct) / 100 >= 10 - 1e-9:
            return pct
    return None


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def item_medians(passes: list[Pass], raw: bool = False) -> list[float]:
    """Each item's median time over the passes, in seconds."""
    key = "raw_item_s" if raw else "item_s"
    return [statistics.median(getattr(p, key)[i] for p in passes)
            for i in range(len(passes[0].item_s))]


def end_to_end(items, passes: list[Pass], setup: tuple[list[float], list[float]]):
    """End-to-end metrics from the untraced passes, at nominal speed.

    Each item's time is its median over the passes, and ``wall_s`` -- the
    time to run the workload's fixed work once -- is the sum of those
    medians, so a slow or fast spell during one pass barely moves it.
    """
    per_item = [t * 1000 for t in item_medians(passes)]
    wall = sum(per_item) / 1000
    tail_pct = tail_percentile(len(per_item))
    if tail_pct is None:
        raise BenchError(f"{len(per_item)} items are too few for a tail percentile")
    counts = passes[0].counts
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup[0]), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (len(items) / wall, "1/s"),
        "item_ms.p50": (statistics.median(per_item), "ms"),
        "item_ms.tail": (percentile(per_item, tail_pct), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    extra = {
        "item_ms.tail_percentile": tail_pct,
        "item_ms.samples": len(per_item),
        "failed_ratio": sum(len(p.failures) for p in passes) / (len(items) * len(passes)),
        "passes": len(passes),
        "raw.wall_s": sum(item_medians(passes, raw=True)),
        "raw.setup_s": statistics.median(setup[1]),
        "raw.pass_wall_s": [p.wall_s for p in passes],
        "speed_scale_per_pass": [p.speed for p in passes],
        "item_ms_median": {item_id: ms for (item_id, _), ms in zip(items, per_item)},
    }
    if counts["search.candidates"]:
        extra["candidates_per_s"] = counts["search.candidates"] / wall
    return metrics, extra


def per_layer(untraced: list[Pass], traced: list[Pass], summaries: list[dict]):
    """Per-layer metrics from the traced passes.

    Busy and self times are shares of the traced pass; ``trace.overhead_s``
    compares the traced and untraced passes at nominal speed.
    """
    untraced_wall = sum(item_medians(untraced))
    traced_wall = sum(item_medians(traced))
    counts = traced[0].counts
    summary = summaries[0]

    def median_of(key, name):
        return statistics.median(s[key].get(name, 0.0) for s in summaries)

    def pct(key, name):
        return statistics.median(100 * s[key].get(name, 0.0) / s["items_s"] for s in summaries)

    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.busy_pct"] = (pct("busy_s", name), "%")
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0), "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (pct("layer_self_s", layer), "%")
    queries = counts["search.queries"]
    metrics.update({
        "search.candidates": (counts["search.candidates"], "count"),
        "search.candidates_per_s": (counts["search.candidates"] / untraced_wall, "1/s"),
        "search.hits": (counts["search.hits"], "count"),
        "search.hit_ratio": (counts["search.hits"] / queries if queries else 0.0, "ratio"),
        "search.chunks": (counts["search.chunks"], "count"),
        "search.ops_computed": (counts["search.ops_computed"], "count"),
        "search.chunk_bytes_computed": (counts["search.chunk_bytes_computed"], "B"),
        "network.nodes_in": (counts["network.nodes_in"], "count"),
        "network.edges_in": (counts["network.edges_in"], "count"),
        "coding.simulate.columns": (counts["coding.simulate.columns"], "count"),
        "reciprocity.duality_failures": (counts["reciprocity.duality_failures"], "count"),
        "layering.unfolded_nodes": (counts["layering.unfolded_nodes"], "count"),
        "layering.unfolded_q_max": (counts["layering.unfolded_q_max"], "count"),
        "fileformat.parse_network.bytes": (summary["bytes"].get("fileformat.parse_network", 0), "B"),
        "fileformat.serialize_network.bytes": (
            summary["bytes"].get("fileformat.serialize_network", 0), "B"),
    })
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}.exit_nonzero"] = (counts[f"cli.{cmd}.exit_nonzero"], "count")
    metrics["bench.self_s"] = (median_of("layer_self_s", "bench"), "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    extra = {
        "busy_s": {name: median_of("busy_s", name)
                   for name in sorted(set().union(*(s["busy_s"] for s in summaries)))},
        "self_s": {layer: median_of("layer_self_s", layer) for layer in LAYERS},
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
    }
    return metrics, extra


def exact_counts(passes: list[Pass], summaries=None) -> list[dict]:
    out = []
    for i, p in enumerate(passes):
        record = {"counts": dict(sorted(p.counts.items()))}
        if summaries is not None:
            record["calls"] = dict(sorted(summaries[i]["calls"].items()))
            record["bytes"] = dict(sorted(summaries[i]["bytes"].items()))
        out.append(record)
    return out


def check_exact_counts(records, key: str, out_dir: Path) -> None:
    """Counts must be equal across passes and across runs with the same key."""
    for i, record in enumerate(records[1:], start=2):
        if record != records[0]:
            raise BenchError(f"exact counts differ between pass 1 and pass {i}: "
                             "generation or search has become nondeterministic")
    store = out_dir / "counts" / f"{key}-{source_digest()}.json"
    if store.exists():
        if json.loads(store.read_text()) != records[0]:
            raise BenchError(f"exact counts differ from an earlier run ({store}): "
                             "generation or search has become nondeterministic")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        partial = store.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(records[0], sort_keys=True))
        os.replace(partial, store)  # a concurrent reader never sees half a file


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def measure(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    import tracing
    import workloads

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{workload_name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        gen_start = time.perf_counter()
        cls = workloads.WORKLOADS[workload_name]
        workload = cls(seed, workdir, ROOT)
        if cls(seed, workdir, ROOT).digest() != workload.digest():
            raise BenchError("the same seed generated different inputs")
        gen_s = time.perf_counter() - gen_start
        setup = None if trace else measure_setup(workload, workdir, SpeedProbe())
        workload.load()
        items = workload.items()

        untraced, traced, summaries = [], [], []
        first_spans = []
        need = 2 if trace else MIN_PASSES
        deadline = time.perf_counter() + seconds
        while True:
            if not trace or len(untraced) <= len(traced):
                untraced.append(run_pass(items))
            else:
                tracer = tracing.Tracer()
                workload.tracer = tracer
                with tracer.patched():
                    traced.append(run_pass(items, tracer))
                workload.tracer = None
                # shares are of the items' own time, not of the speed probes between them
                summaries.append(tracing.summarize(tracer.spans, sum(traced[-1].raw_item_s),
                                                   tracer.bytes))
                first_spans = first_spans or tracer.spans
            if time.perf_counter() >= deadline and len(untraced) >= need \
                    and (not trace or len(traced) >= need):
                break

        passes = untraced + traced
        records = exact_counts(traced, summaries) if trace else exact_counts(untraced)
        check_exact_counts(records, f"{workload_name}-seed{seed}-trace{int(trace)}", out_dir)
        if trace:
            metrics, extra = per_layer(untraced, traced, summaries)
            spans_file = out_dir / f"spans-{workload_name}-seed{seed}.jsonl"
            with spans_file.open("w") as fh:
                fh.write(json.dumps(["name", "start", "end", "parent", "item"]) + "\n")
                for span in first_spans:
                    fh.write(json.dumps(span) + "\n")
            extra["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            metrics, extra = end_to_end(items, untraced, setup)
        extra["generate_s"] = gen_s
        return {
            "workload": workload_name,
            "trace": int(trace),
            "env": environment(seed),
            "mix": workload.mix(passes[0].counts),
            "metrics": metrics,
            "extra": extra,
            "attempted": len(items) * len(passes),
            "failures": [f for p in passes for f in p.failures],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["search-scan", "reciprocity-sweep", "unfold-equivalence",
                                 "cli-files"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for item_id, problems in result["failures"][:10]:
        print(f"FAILED {item_id}: {'; '.join(problems)}", file=sys.stderr)
    extra = result["extra"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("mix " + json.dumps(result["mix"], sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value} {unit}")
    if not args.trace:
        if "candidates_per_s" in extra:
            print(f"metric candidates_per_s {extra['candidates_per_s']} 1/s")
        print(f"metric failed_ratio {extra['failed_ratio']} ratio")
    for layer_key in ("busy_s", "self_s"):
        for name, value in extra.get(layer_key, {}).items():
            print(f"layer {name}.{layer_key} {value} s")
    for key, value in sorted(extra.items()):
        if not isinstance(value, (dict, list)) and key not in ("candidates_per_s", "failed_ratio"):
            print(f"info {key} {value}")

    out_dir = ROOT / ".bench_out"
    out_file = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True, default=str))
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
