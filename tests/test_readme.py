"""The README's library quick start and CLI examples run as written."""

import re
import shlex
import shutil
from pathlib import Path

from mfhxa import cli

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


def cli_examples() -> list[tuple[str, list[str]]]:
    """(command, files it writes) for each `mfhxa ...` bullet under '## CLI'.

    The files are the `--out` path, or the names after "writes" in the
    bullet's text when it gives them.
    """
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):]
    section = section[:section.find("\n## ", 1)]
    examples = []
    for bullet in re.findall(r"^- (`mfhxa .*?)(?=^\S|\Z)", section, re.S | re.M):
        command, *rest = re.findall(r"`([^`]*)`", bullet)
        writes = rest if "(writes" in bullet else [shlex.split(command)[-1]]
        examples.append((command, writes))
    return examples


def test_cli_examples_run(tmp_path, monkeypatch):
    fixtures = Path(__file__).parent / "fixtures"
    shutil.copy(fixtures / "market_prices.csv", tmp_path / "prices.csv")
    shutil.copy(fixtures / "market_volumes.csv", tmp_path / "volumes.csv")
    monkeypatch.chdir(tmp_path)
    for d, seed, name in ((0.3, 1, "x.csv"), (0.1, 2, "y.csv")):
        assert cli.main(["generate", "arfima", f"d={d}", "length=2000", f"seed={seed}",
                         "--out", name]) == 0
    examples = cli_examples()
    assert len(examples) >= 8
    for command, writes in examples:
        argv = shlex.split(command)
        assert argv[0] == "mfhxa"
        if argv[1:3] == ["replicate", "fig1a"]:
            continue  # the fig1a golden-table test runs it
        assert cli.main(argv[1:]) == 0, command
        for path in writes:
            assert (tmp_path / path).exists(), (command, path)
