"""Transposed codes for reversed networks, and their physical realization.

For any layered linear code, swapping encoder and decoder roles and
transposing every matrix yields a code on the reciprocal network whose
transfer grid is the entrywise transpose of the original grid with
source/destination indices swapped.  That duality holds for every code,
solving or not; when the forward code solves its network, the transposed
code therefore solves the reciprocal one.

On networks whose gains are all shift matrices the reciprocal's
transposed gains shift upward instead of downward.  Conjugating with the
coordinate-reversing flip turns an up-shift back into the physical
down-shift, so :func:`physical_code` absorbs a flip into every node:
transmissions are flipped before sending and receptions before coding,
producing a code for the reverse network that reuses the original
channel gains unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .coding import LinearCode, TransferMap, transfer_matrices, validate_code
from .errors import NonShiftGainError
from .gf_linalg import as_shift_strength, flip_matrix
from .network import Edge, LayeredNetwork, reciprocal_layered


def transpose_code(ln: LayeredNetwork, code: LinearCode) -> LinearCode:
    """The reversed-network code with every matrix transposed.

    Encoders become the transposed decoders and vice versa; each relay
    keeps its node and is transposed, its input/output roles swapping
    together with the edge directions.  Applying the construction twice
    gives back the original code.  The code is bound to the network that
    :func:`~ldnc.network.reciprocal_layered` returns: the caller's own
    reciprocal of ``ln`` while the caller holds one, and the source
    itself when ``ln`` is a reciprocal.
    """
    validate_code(ln, code)
    return LinearCode(
        network=reciprocal_layered(ln),
        encoders={k: d.T for k, d in code.decoders.items()},
        decoders={k: c.T for k, c in code.encoders.items()},
        relays={v: f.T for v, f in code.relays.items()},
    )


@dataclass(frozen=True)
class ReciprocityReport:
    """Outcome of checking a code and its transpose on the reciprocal.

    ``duality_holds`` must be true for every code; ``solvability_carried``
    states that solvability carried over to the reciprocal (vacuously
    true for non-solving codes).
    """

    solves_forward: bool
    duality_holds: bool
    transpose_solves_reciprocal: bool
    solvability_carried: bool
    gamma: TransferMap
    gamma_reciprocal: TransferMap

    def flags(self) -> dict[str, bool]:
        return {
            "solves_forward": self.solves_forward,
            "duality_holds": self.duality_holds,
            "transpose_solves_reciprocal": self.transpose_solves_reciprocal,
            "solvability_carried": self.solvability_carried,
        }


def verify_reciprocity(ln: LayeredNetwork, code: LinearCode) -> ReciprocityReport:
    """Compute both transfer grids and check the transposition duality."""
    gamma = transfer_matrices(ln, code)
    rcode = transpose_code(ln, code)
    gamma_r = transfer_matrices(rcode.network, rcode)
    # both grids list sessions in id order, so entry (i, j) of one is entry (j, i) of the other
    duality = all(r == g.T for row, col in zip(gamma_r.grid, zip(*gamma.grid))
                  for r, g in zip(row, col))
    solves = gamma.is_identity_delta()
    r_solves = gamma_r.is_identity_delta()
    return ReciprocityReport(
        solves_forward=solves,
        duality_holds=duality,
        transpose_solves_reciprocal=r_solves,
        solvability_carried=(not solves) or r_solves,
        gamma=gamma,
        gamma_reciprocal=gamma_r,
    )


def physical_reverse(ln: LayeredNetwork) -> LayeredNetwork:
    """The reverse network reusing the original gains on flipped edges.

    This is the reciprocal with the forward gains on its links: the
    physical channel behaves identically in both directions, so the
    reverse link keeps the forward gain matrix.
    """
    return _physical(ln, reciprocal_layered(ln))


def _physical(ln: LayeredNetwork, rln: LayeredNetwork) -> LayeredNetwork:
    """``rln``, the reciprocal of ``ln``, with ``ln``'s gains on its links."""
    edges = tuple(Edge(e.dst, e.src, e.gain) for e in ln.base.edges)
    return replace(rln, base=replace(rln.base, edges=edges))


def physical_code(ln: LayeredNetwork, rcode: LinearCode) -> LinearCode:
    """Turn a reciprocal-network code into one for the physical reverse.

    ``ln`` is the forward network, which must carry shift gains only;
    ``rcode`` is a code for its reciprocal (transposed gains).  Every
    transposed gain equals the original gain conjugated by the flip, so
    flipping each signal-side interface -- encoder outputs, relay inputs
    and outputs, decoder inputs -- yields a code with the same end-to-end
    behavior on the reverse network whose links keep the forward shift
    gains.  Message coordinates are never flipped.
    """
    for e in ln.base.edges:
        if as_shift_strength(e.gain) is None:
            raise NonShiftGainError(
                f"gain on edge {e.src} -> {e.dst} is not a shift matrix"
            )
    rln = reciprocal_layered(ln)
    validate_code(rln, rcode)
    j = flip_matrix(ln.base.field, ln.base.q)
    return LinearCode(
        network=_physical(ln, rln),
        encoders={k: j @ c for k, c in rcode.encoders.items()},
        decoders={k: d @ j for k, d in rcode.decoders.items()},
        relays={v: j @ f @ j for v, f in rcode.relays.items()},
    )
