"""Self-test of the benchmark's checker and tracer.

    python3 bench/selftest.py

1. One whole cycle of every workload passes the check on every item.
2. The check flags outputs perturbed by 1e-6 relative: a generated profile
   and a verdict's exponents (montecarlo), and each numeric table a CLI
   item writes, parsed back (replicate, market).
3. In a traced cycle of every workload, the layers' self times plus the
   unattributed time add up to the traced wall time, and the kernel's
   increment reuse is 1/3.

Exits 0 when every statement holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import mfhxa  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PERTURBATION = 1e-6
KEY_COLUMNS = {"q", "tau", "n", "date"}
PERTURBED_FILES = {
    "replicate": {1: ["fig1b_curves.tsv"], 8: ["fig2a_decomposition.tsv"],
                  10: ["fig2c_decomposition.tsv"]},
    "market": {1: ["0_volatility.csv", "3_volume_deviation.csv", "1_market.grid.tsv",
                   "2_market.curve.tsv"]},
}

failures: list[str] = []


def claim(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def perturb_table(src: Path, dst: Path) -> None:
    """Copy a table, scaling every numeric value cell by 1 + PERTURBATION.

    Key columns (q, tau, n, date) are left alone, so the check has to notice
    the values themselves.
    """
    sep = "," if src.suffix == ".csv" else "\t"
    out = []
    header = None
    for line in src.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or header is None:
            if not line.startswith("#"):
                header = line.split(sep)
            out.append(line)
            continue
        cells = []
        for column, cell in zip(header, line.split(sep)):
            try:
                value = float(cell)
            except ValueError:
                value = None
            if value is None or column in KEY_COLUMNS:
                cells.append(cell)
            else:
                cells.append(format(value * (1.0 + PERTURBATION), ".12g"))
        out.append(sep.join(cells))
    dst.write_text("\n".join(out) + "\n", encoding="utf-8")


def check_workload(name: str, workdir: Path) -> None:
    workload = WORKLOADS[name](7, workdir)
    runner = run.Runner(workload, 7, workdir)

    result = run.PassResult()
    runner.run_batch(result, "plain", 1, workload.cycle, check_all=True)
    claim(not result.failures and result.checked == workload.cycle,
          f"{name}: {result.checked} of {workload.cycle} items checked, "
          f"{len(result.failures)} failed {sorted(result.failures)}")

    if name == "montecarlo":
        (x, y, c06), c07 = workload.item(1, workdir)
        scaled = mfhxa.TimeSeries(x.values * (1.0 + PERTURBATION), x.label)
        v = c06[0]
        shifted = dataclasses.replace(v, h_xy=dataclasses.replace(
            v.h_xy, h=v.h_xy.h * (1.0 + PERTURBATION)))
        for what, outputs in (("profile", ((scaled, y, c06), c07)),
                              ("exponent", ((x, y, [shifted, *c06[1:]]), c07))):
            problems = workload.check(1, workdir, outputs)
            claim(bool(problems), f"montecarlo: perturbed {what} flagged ({problems[:1]})")
        return

    for i, files in PERTURBED_FILES[name].items():
        item_dir = workdir / f"item-{i}"
        item_dir.mkdir()
        workload.item(i, item_dir)
        for fname in files:
            copy = workdir / f"item-{i}-{fname}"
            shutil.copytree(item_dir, copy)
            (copy / fname).unlink()
            perturb_table(item_dir / fname, copy / fname)
            problems = workload.check(i, copy, None)
            claim(bool(problems), f"{name}: perturbed {fname} flagged ({problems[:1]})")


def check_trace(name: str, workdir: Path) -> None:
    workload = WORKLOADS[name](7, workdir)
    runner = run.Runner(workload, 7, workdir)
    untraced = run.PassResult()
    runner.run_batch(untraced, "untraced", 1, workload.cycle)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.PassResult()
        runner.run_batch(traced, "traced", 1, workload.cycle)
    finally:
        tracer.uninstall()
    metrics, summary = tracer.metrics(traced.items, traced.wall_ns, untraced.wall_ns)
    total = sum(summary["layer_self_ns"].values()) + summary["unattributed_ns"]
    claim(total == traced.wall_ns and summary["unattributed_ns"] >= 0,
          f"{name}: layer self times + unattributed = {total} ns, "
          f"traced wall = {traced.wall_ns} ns")
    reuse = metrics["estimator.kernel.increment_reuse"]["value"]
    claim(abs(reuse - 1 / 3) < 1e-12, f"{name}: increment reuse {reuse:.6f}")
    shares = ", ".join(f"{k} {v:.0%}" for k, v in summary["layer_share"].items())
    print(f"     {name} traced shares: {shares}")


def main() -> int:
    workdir = run.WORK / f"selftest-{os.getpid()}"
    try:
        for name in run.WORKLOAD_NAMES:
            check_workload(name, workdir / name)
            check_trace(name, workdir / f"{name}-trace")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
