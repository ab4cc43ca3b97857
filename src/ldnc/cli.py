"""Command-line interface.

Every command reads the text formats documented in
:mod:`ldnc.fileformat`.  ``validate``, ``transfer``, ``simulate``,
``verify-reciprocity`` and ``search`` take ``--format text`` (default)
or ``--format structured`` (line-delimited ``key value ...`` records
for harnesses); ``reciprocal``, ``unfold`` and ``corpus`` take neither.
Exit codes: 0 on success, 1 on a domain outcome that is a failure
(network not layered, no code found, validation violations), 2 on
malformed or mismatched input files.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from . import __version__
from . import corpus as corpus_pkg
from .coding import simulate, transfer_matrices
from .errors import (
    CodeBindingError,
    InvalidNetworkError,
    LdncError,
    ParseError,
)
from .fileformat import (
    matrix_literal,
    parse_code,
    parse_messages,
    parse_network,
    serialize_code,
    serialize_network,
)
from .layering import unfold
from .network import detect_layers, reciprocal, validate
from .reciprocity import verify_reciprocity
from .search import DEFAULT_BUDGET, exhaustive_search, random_search

_FORMAT = click.option(
    "--format", "fmt",
    type=click.Choice(["text", "structured"]),
    default="text",
    show_default=True,
    help="output style",
)


def _echo(message: str = "", err: bool = False, nl: bool = True) -> None:
    """``click.echo`` to the current ``sys.stdout`` or ``sys.stderr``.

    Without a file, click caches the stream it writes to in a weak-keyed
    map whose value refers back to the key, so every in-process run (one
    ``CliRunner.invoke``, say) would keep its captured output alive.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ParseError, InvalidNetworkError, CodeBindingError, OSError, ValueError) as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(2)
        except LdncError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_layered(network_path: str):
    return detect_layers(parse_network(_read(network_path)))


def _echo_network_header(ln, fmt):
    if fmt == "structured":
        _echo(f"p {ln.base.field.p}")
        _echo(f"q {ln.base.q}")
        _echo(f"horizon {ln.horizon}")
        _echo(f"sessions {len(ln.base.sessions)}")
    else:
        _echo(
            f"network: p={ln.base.field.p} q={ln.base.q} "
            f"horizon={ln.horizon} sessions={len(ln.base.sessions)}"
        )


def _sep(fmt):
    """What joins a key to its value: a space in structured output."""
    return " " if fmt == "structured" else ": "


def _echo_grid(gamma, fmt, label):
    ids = [s.id for s in gamma.sessions]
    for l in ids:
        for k in ids:
            entry = gamma.entry(l, k)
            if fmt == "structured":
                _echo(f"{label} {l} {k} {matrix_literal(entry)}")
            else:
                _echo(f"{label}[{l}->{k}]:")
                for row in entry.to_rows():
                    _echo("  " + " ".join(map(str, row)))


@click.group()
@click.version_option(__version__, prog_name="ldnc")
def main():
    """Model linear deterministic networks, their codes, and reciprocity."""


@main.command("validate")
@click.argument("network_file")
@_FORMAT
@_guard
def cmd_validate(network_file, fmt):
    """Check a network file against the structural invariants."""
    report = validate(parse_network(_read(network_file)))
    if fmt == "structured":
        _echo(f"ok {str(report.ok).lower()}")
        for v in report.violations:
            _echo(f"violation {v.kind} {v.message}")
    else:
        if report.ok:
            _echo("ok")
        for v in report.violations:
            _echo(f"violation: {v}")
    if not report.ok:
        sys.exit(1)


@main.command("transfer")
@click.argument("network_file")
@click.argument("code_file")
@_FORMAT
@_guard
def cmd_transfer(network_file, code_file, fmt):
    """Print the transfer-matrix grid of a code and the solvability verdict."""
    ln = _load_layered(network_file)
    code = parse_code(_read(code_file), ln)
    gamma = transfer_matrices(ln, code)
    _echo_network_header(ln, fmt)
    _echo_grid(gamma, fmt, "gamma")
    verdict = "solves" if gamma.is_identity_delta() else "does-not-solve"
    _echo(f"verdict{_sep(fmt)}{verdict}")


@main.command("reciprocal")
@click.argument("network_file")
@click.argument("out_file")
@_guard
def cmd_reciprocal(network_file, out_file):
    """Write the reciprocal network (reversed edges, transposed gains)."""
    n = reciprocal(parse_network(_read(network_file)))
    Path(out_file).write_text(serialize_network(n))
    _echo(f"written {out_file}")


@main.command("unfold")
@click.argument("network_file")
@click.argument("horizon", type=int)
@click.argument("out_file")
@_guard
def cmd_unfold(network_file, horizon, out_file):
    """Unfold a network over HORIZON time instants into a layered one."""
    un = unfold(parse_network(_read(network_file)), horizon)
    Path(out_file).write_text(serialize_network(un.base))
    _echo(f"written {out_file}")


@main.command("verify-reciprocity")
@click.argument("network_file")
@click.argument("code_file")
@_FORMAT
@_guard
def cmd_verify_reciprocity(network_file, code_file, fmt):
    """Check the transposition duality and solvability carry-over."""
    ln = _load_layered(network_file)
    code = parse_code(_read(code_file), ln)
    report = verify_reciprocity(ln, code)
    for key, value in report.flags().items():
        if fmt == "structured":
            _echo(f"{key} {str(value).lower()}")
        else:
            _echo(f"{key}: {value}")
    _echo_grid(report.gamma, fmt, "gamma")
    _echo_grid(report.gamma_reciprocal, fmt, "gamma_reciprocal")


@main.command("search")
@click.argument("network_file")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True,
              help="candidate cap for the exhaustive scan")
@click.option("--trials", type=int, default=None,
              help="switch to randomized search with this many trials")
@click.option("--seed", type=int, default=0, show_default=True,
              help="seed for randomized search")
@click.option("--out", "out_file", default=None, help="write a found code here")
@_FORMAT
@_guard
def cmd_search(network_file, budget, trials, seed, out_file, fmt):
    """Search for a solving code, exhaustively or by random sampling."""
    ln = _load_layered(network_file)
    if trials is None:
        result = exhaustive_search(ln, budget=budget)
    else:
        result = random_search(ln, trials=trials, seed=seed)
    sep = _sep(fmt)
    _echo(f"outcome{sep}{result.outcome}")
    _echo(f"scanned{sep}{result.scanned}")
    if result.outcome == "found":
        _echo(f"index{sep}{result.index}")
        if fmt == "structured":
            for line in serialize_code(result.code).splitlines():
                _echo(f"code {line}")
        else:
            _echo(serialize_code(result.code), nl=False)
        if out_file:
            Path(out_file).write_text(serialize_code(result.code))
            _echo(f"written{sep}{out_file}")
    else:
        sys.exit(1)


@main.command("simulate")
@click.argument("network_file")
@click.argument("code_file")
@click.argument("message_file")
@_FORMAT
@_guard
def cmd_simulate(network_file, code_file, message_file, fmt):
    """Run a code on concrete messages and print every reconstruction."""
    ln = _load_layered(network_file)
    code = parse_code(_read(code_file), ln)
    messages = parse_messages(_read(message_file), ln)
    outs = simulate(ln, code, messages)
    for s, out in zip(ln.base.sessions_sorted(), outs):
        flat = ",".join(str(out[i, 0]) for i in range(out.rows))
        _echo(f"reconstruction {s.id}{_sep(fmt)}[{flat}]")


@main.command("corpus")
@click.argument("name", required=False)
@_guard
def cmd_corpus(name):
    """List the bundled example files, or print one file's location."""
    if name is None:
        for entry in corpus_pkg.names():
            _echo(entry)
    else:
        try:
            _echo(corpus_pkg.location(name))
        except KeyError as exc:  # str(KeyError) would quote the message
            _echo(f"error: {exc.args[0]}", err=True)
            sys.exit(2)


if __name__ == "__main__":
    main()
