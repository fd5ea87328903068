"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first ```python block under the '## Library quick start' heading."""
    text = README.read_text()
    section = text[text.index("\n## Library quick start\n"):]
    section = section[:section.find("\n## ", 1)]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match, "no python block under '## Library quick start'"
    return match.group(1)


def test_library_quick_start_runs():
    code = quick_start()
    for call in ("generalized_hurst_curve(", "cross_persistence_verdict(",
                 "scaling_decomposition(", "pair_moments(", ".curves()"):
        assert call in code, call
    namespace = {}
    exec(compile(code, f"{README}:quick start", "exec"), namespace)
    xy, xx, yy = namespace["xy"], namespace["xx"], namespace["yy"]
    assert xy.q_values == xx.q_values == yy.q_values == (0.5, 1.0, 2.0)
    assert namespace["k_xy"].shape == (3, 100)
