"""The public API: every exported name and its call signature, and every
public method and property of the exported classes, pinned."""

import inspect
from functools import cached_property

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

# Public methods with their signatures, and properties, of each exported
# class; dunder methods only where ldnc writes them, not where
# ``dataclass`` generates them.
MEMBERS = {
    "Edge": {},
    "FieldModulus": {
        "__post_init__": "(self) -> 'None'",
        "__str__": "(self) -> 'str'",
        "inv": "(self, a: 'int') -> 'int'",
    },
    "GfMatrix": {
        "T": "property",
        "__add__": '(self, other: "\'GfMatrix\'") -> "\'GfMatrix\'"',
        "__eq__": "(self, other: 'object') -> 'bool'",
        "__getitem__": "(self, key: 'tuple[int, int]') -> 'int'",
        "__hash__": "(self) -> 'int'",
        "__matmul__": '(self, other: "\'GfMatrix\'") -> "\'GfMatrix\'"',
        "__repr__": "(self) -> 'str'",
        "cols": "property",
        "from_rows": (
            "(field: 'FieldModulus', rows: 'Sequence[Sequence[int]]') -> \"'GfMatrix'\""
        ),
        "is_identity": "(self) -> 'bool'",
        "is_zero": "(self) -> 'bool'",
        "rows": "property",
        "shape": "property",
        "to_array": "(self) -> 'np.ndarray'",
        "to_rows": "(self) -> 'list[list[int]]'",
        "transpose": '(self) -> "\'GfMatrix\'"',
    },
    "LayeredNetwork": {
        "__eq__": "(self, other: 'object') -> 'bool'",
        "layer_of": "(self, node: 'str') -> 'int'",
        "message_length": "(self, session: 'Session') -> 'int'",
        "nodes_at": "(self, layer: 'int') -> 'list[str]'",
        "relay_nodes": "(self) -> 'list[str]'",
    },
    "LinearCode": {},
    "Network": {
        "__eq__": "(self, other: 'object') -> 'bool'",
        "edge_map": "(self) -> 'dict[tuple[str, str], GfMatrix]'",
        "in_edges": "(self, node: 'str') -> 'list[Edge]'",
        "out_edges": "(self, node: 'str') -> 'list[Edge]'",
        "session": "(self, session_id: 'int') -> 'Session'",
        "sessions_decoded_at": "(self, node: 'str') -> 'tuple[Session, ...]'",
        "sessions_sorted": "(self) -> 'tuple[Session, ...]'",
        "sessions_sourced_at": "(self, node: 'str') -> 'tuple[Session, ...]'",
    },
    "ReciprocityReport": {
        "flags": "(self) -> 'dict[str, bool]'",
    },
    "SearchResult": {},
    "Session": {},
    "TransferMap": {
        "entry": "(self, source_id: 'int', dest_id: 'int') -> 'GfMatrix'",
        "is_identity_delta": "(self) -> 'bool'",
    },
    "UnfoldedNetwork": {
        "__eq__": "(self, other: 'object') -> 'bool'",
        "layer_of": "(self, node: 'str') -> 'int'",
        "message_length": "(self, session: 'Session') -> 'int'",
        "nodes_at": "(self, layer: 'int') -> 'list[str]'",
        "relay_nodes": "(self) -> 'list[str]'",
    },
    "UnlayeredLinearScheme": {},
    "ValidationReport": {
        "__str__": "(self) -> 'str'",
        "ok": "property",
    },
}


def test_exported_names_are_pinned():
    assert list(ldnc.__all__) == list(SIGNATURES)


def test_exported_signatures_are_pinned():
    got = {name: str(inspect.signature(getattr(ldnc, name))) for name in ldnc.__all__}
    assert got == SIGNATURES


def public_members(cls) -> dict[str, str]:
    out = {}
    for klass in reversed(cls.__mro__[:-1]):
        for name, value in vars(klass).items():
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                continue
            if isinstance(value, (property, cached_property)):
                out[name] = "property"
                continue
            fn = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if not inspect.isfunction(fn) or name == "__init__":
                continue
            if fn.__code__.co_filename != inspect.getsourcefile(klass):
                continue  # generated by dataclass
            out[name] = str(inspect.signature(getattr(cls, name)))
    return out


def test_exported_class_members_are_pinned():
    got = {
        name: public_members(getattr(ldnc, name))
        for name in ldnc.__all__
        if inspect.isclass(getattr(ldnc, name))
    }
    assert got == MEMBERS
