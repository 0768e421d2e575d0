"""README's Python examples run as written: every ```python block, in
order, in one namespace.  The replay example ends in key agreement naming
the victim's seat, as its comment says.  A name the package dropped but the
README still uses fails here."""

import re
from pathlib import Path

import pytest

from gaskit.gas_core import PeerAuthenticationError

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)


def test_readme_python_blocks_run_in_order():
    assert len(BLOCKS) == 4
    namespace = {}
    replays = 0
    for i, block in enumerate(BLOCKS):
        code = compile(block, f"README.md python block {i}", "exec")
        if "tap=swap" in block:  # the replay example
            replays += 1
            with pytest.raises(PeerAuthenticationError) as exc:
                exec(code, namespace)
            assert exc.value.peer_id == "U2"
        else:
            exec(code, namespace)
    assert replays == 1
