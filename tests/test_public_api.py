"""The public API: every exported name and its call signature, pinned."""

import inspect

import ldnc

SIGNATURES = {
    "Edge": "(src: 'str', dst: 'str', gain: 'GfMatrix') -> None",
    "FieldModulus": "(p: 'int') -> None",
    "GfMatrix": "(field: 'FieldModulus', array: 'np.ndarray')",
    "LayeredNetwork": (
        "(base: 'Network', layer_map: 'Mapping[str, int]', horizon: 'int') -> None"
    ),
    "LinearCode": (
        "(network: 'LayeredNetwork', encoders: 'Mapping[int, GfMatrix]', "
        "decoders: 'Mapping[int, GfMatrix]', relays: 'Mapping[str, GfMatrix]') -> None"
    ),
    "Network": (
        "(field: 'FieldModulus', q: 'int', nodes: 'tuple[str, ...]', "
        "edges: 'tuple[Edge, ...]', sessions: 'tuple[Session, ...]') -> None"
    ),
    "ReciprocityReport": (
        "(solves_forward: 'bool', duality_holds: 'bool', "
        "transpose_solves_reciprocal: 'bool', solvability_carried: 'bool', "
        "gamma: 'TransferMap', gamma_reciprocal: 'TransferMap') -> None"
    ),
    "SearchResult": (
        "(outcome: 'str', code: 'LinearCode | None', index: 'int | None', "
        "scanned: 'int') -> None"
    ),
    "Session": "(id: 'int', source: 'str', destination: 'str', width: 'int') -> None",
    "TransferMap": (
        "(sessions: 'tuple[Session, ...]', "
        "grid: 'tuple[tuple[GfMatrix, ...], ...]') -> None"
    ),
    "UnfoldedNetwork": (
        "(base: 'Network', layer_map: 'Mapping[str, int]', horizon: 'int', "
        "original: 'Network') -> None"
    ),
    "UnlayeredLinearScheme": (
        "(horizon: 'int', node_encoders: 'Mapping[tuple[str, int], GfMatrix]', "
        "decoders: 'Mapping[int, GfMatrix]') -> None"
    ),
    "ValidationReport": "(violations: 'tuple[Violation, ...]' = ()) -> None",
    "as_shift_strength": "(m: 'GfMatrix') -> 'int | None'",
    "block_embed": "(gain: 'GfMatrix', q: 'int', horizon: 'int') -> 'GfMatrix'",
    "candidate_code": "(ln: 'LayeredNetwork', index: 'int') -> 'LinearCode'",
    "candidate_count": "(ln: 'LayeredNetwork') -> 'int'",
    "detect_layers": "(n: 'Network') -> 'LayeredNetwork'",
    "exhaustive_search": (
        "(ln: 'LayeredNetwork', budget: 'int' = 1000000, "
        "chunk_size: 'int' = 65536) -> 'SearchResult'"
    ),
    "flip_matrix": "(field: 'FieldModulus', q: 'int') -> 'GfMatrix'",
    "free_entry_count": "(ln: 'LayeredNetwork') -> 'int'",
    "identity": "(field: 'FieldModulus', n: 'int') -> 'GfMatrix'",
    "is_kronecker_delta_identity": "(grid: 'Sequence[Sequence[GfMatrix]]') -> 'bool'",
    "is_solving": "(ln: 'LayeredNetwork', code: 'LinearCode') -> 'bool'",
    "lift_code": "(n: 'Network', scheme: 'UnlayeredLinearScheme') -> 'LinearCode'",
    "network": (
        "(p: 'int', q: 'int', nodes: 'Iterable[str]', "
        "edges: 'Iterable[tuple[str, str, GfMatrix]]', "
        "sessions: 'Iterable[tuple[int, str, str, int] | Session]') -> 'Network'"
    ),
    "physical_code": "(ln: 'LayeredNetwork', rcode: 'LinearCode') -> 'LinearCode'",
    "physical_reverse": "(ln: 'LayeredNetwork') -> 'LayeredNetwork'",
    "project_code": "(code: 'LinearCode') -> 'UnlayeredLinearScheme'",
    "random_search": (
        "(ln: 'LayeredNetwork', trials: 'int', seed: 'int' = 0) -> 'SearchResult'"
    ),
    "reciprocal": "(n: 'Network') -> 'Network'",
    "reciprocal_layered": "(ln: 'LayeredNetwork') -> 'LayeredNetwork'",
    "shift_matrix": "(field: 'FieldModulus', q: 'int', strength: 'int') -> 'GfMatrix'",
    "simulate": (
        "(ln: 'LayeredNetwork', code: 'LinearCode', "
        "messages: 'Sequence[GfMatrix]') -> 'list[GfMatrix]'"
    ),
    "simulate_unlayered": (
        "(n: 'Network', scheme: 'UnlayeredLinearScheme', "
        "messages: 'Sequence[GfMatrix]') -> 'list[GfMatrix]'"
    ),
    "transfer_matrices": "(ln: 'LayeredNetwork', code: 'LinearCode') -> 'TransferMap'",
    "transpose_code": "(ln: 'LayeredNetwork', code: 'LinearCode') -> 'LinearCode'",
    "unfold": "(n: 'Network', horizon: 'int') -> 'UnfoldedNetwork'",
    "validate": "(n: 'Network') -> 'ValidationReport'",
    "verify_reciprocity": "(ln: 'LayeredNetwork', code: 'LinearCode') -> 'ReciprocityReport'",
    "zeros": "(field: 'FieldModulus', rows: 'int', cols: 'int') -> 'GfMatrix'",
}


def test_exported_names_are_pinned():
    assert list(ldnc.__all__) == list(SIGNATURES)


def test_exported_signatures_are_pinned():
    got = {name: str(inspect.signature(getattr(ldnc, name))) for name in ldnc.__all__}
    assert got == SIGNATURES
