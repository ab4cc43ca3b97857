"""One rule for a batch of messages.

``simulate``, ``simulate_unlayered`` and ``parse_messages`` check a batch
the same way, through ``coding._check_matrices``: one matrix per session
in id order, ``width * horizon`` rows each, one shared column count, over
the network's field.  Each raises its own error class with the same text.
"""

import pytest
from click.testing import CliRunner

from ldnc.cli import main
from ldnc.coding import simulate
from ldnc.errors import CodeBindingError, SchemeShapeError
from ldnc.fileformat import serialize_code, serialize_network
from ldnc.gf_linalg import FieldModulus, zeros
from ldnc.layering import UnlayeredLinearScheme, simulate_unlayered
from ldnc.search import candidate_code

from helpers import shared_source

GF2 = FieldModulus(2)
GF3 = FieldModulus(3)

# shared_source(2, 2): sessions 1 (width 1), 2 (width 0) and 3 (width 1),
# one layer, so the batch needs shapes (1, c), (0, c) and (1, c)
BAD_BATCHES = {
    "wrong count": (
        [zeros(GF2, 1, 1)] * 2,
        "expected 3 message vectors, got 2",
    ),
    "wrong rows": (
        [zeros(GF2, 2, 1), zeros(GF2, 0, 1), zeros(GF2, 1, 1)],
        "message for session 1 has shape (2, 1), expected (1, 1)",
    ),
    "mismatched columns": (
        [zeros(GF2, 1, 2), zeros(GF2, 0, 2), zeros(GF2, 1, 1)],
        "message for session 3 has shape (1, 1), expected (1, 2)",
    ),
    "foreign field": (
        [zeros(GF2, 1, 1), zeros(GF2, 0, 1), zeros(GF3, 1, 1)],
        "message for session 3 is over GF(3), expected GF(2)",
    ),
}


def _both_simulators(ln):
    """simulate on a code of ``ln`` and simulate_unlayered on a scheme
    over the same network and horizon, each with its own error class."""
    n = ln.base
    scheme = UnlayeredLinearScheme(
        horizon=ln.horizon,
        node_encoders={},
        decoders={s.id: zeros(n.field, ln.message_length(s), n.q * ln.horizon)
                  for s in n.sessions_sorted()},
    )
    code = candidate_code(ln, 0)
    return [
        (lambda msgs: simulate(ln, code, msgs), CodeBindingError),
        (lambda msgs: simulate_unlayered(n, scheme, msgs), SchemeShapeError),
    ]


@pytest.mark.parametrize("case", list(BAD_BATCHES))
def test_both_simulators_reject_a_bad_batch_with_one_text(case):
    messages, text = BAD_BATCHES[case]
    for run, error in _both_simulators(shared_source(2, 2)):
        with pytest.raises(error) as info:
            run(messages)
        assert type(info.value) is error
        assert str(info.value) == text


@pytest.mark.parametrize("text, error", [
    ("W 1: [0,0]\nW 2: []\nW 3: [0]\n", BAD_BATCHES["wrong rows"][1]),
    ("W 1: [0]\nW 2: []\n", "message for session 3 is missing"),
    ("W 1: [0]\nW 4: [1]\nW 2: []\nW 3: [0]\n",
     "message for session 4 has no slot in the network"),
    ("W 1: [0]\nW 2: []\nW 1: [1]\nW 3: [0]\n", "duplicate message for session 1"),
], ids=["wrong rows", "wrong count", "unknown session", "duplicate session"])
def test_simulate_command_exits_2_on_a_bad_batch(tmp_path, text, error):
    ln = shared_source(2, 2)
    net, code, msg = (tmp_path / name for name in ("n.net", "n.code", "n.msg"))
    net.write_text(serialize_network(ln.base))
    code.write_text(serialize_code(candidate_code(ln, 0)))
    msg.write_text(text)
    result = CliRunner().invoke(main, ["simulate", str(net), str(code), str(msg)])
    assert result.exit_code == 2
    assert result.output == f"error: {error}\n"
