"""Set-up probe: a fresh interpreter imports ldnc and loads a workload's inputs.

    python3 setup_child.py CHECKOUT_ROOT INPUTS_JSON

INPUTS_JSON holds [network text, layered?] pairs; each text is parsed
and, when layered, run through detect_layers.  The caller times the
whole process.
"""

import json
import sys
from pathlib import Path

root, bundle = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "src"))

from ldnc.fileformat import parse_network  # noqa: E402
from ldnc.network import detect_layers  # noqa: E402

for text, is_layered in json.loads(bundle.read_text()):
    net = parse_network(text)
    if is_layered:
        detect_layers(net)
