"""Command-line front end.

Grammar: mfhxa <generate|transform|estimate|decompose|replicate>
              [name] [key=value ...] [--in PATH ...] [--out PATH]
The name comes first; keys, --in and --out may then come in any order.

Every output file starts with '#'-prefixed manifest lines (tool, numpy and
scipy versions, resolved parameters, input digests, seed, timestamp) so a
result can be reproduced from the file alone. All numbers print with 12 significant
digits. MFHXA_SEED provides a fallback when a command needs a seed and
none is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import typing
from datetime import datetime, timezone
from pathlib import Path

import numpy
import scipy

from . import __version__
from .csvio import column_series, format_number, read_columns, write_csv
from .errors import MfhxaError, ParameterError
from .estimator import (
    FILTERS,
    Q_STEP,
    EstimationConfig,
    pair_moments,
    q_range,
    real_preset,
    synthetic_preset,
)
from .generators import (
    ArfimaConfig,
    MbmConfig,
    NoisePairConfig,
    TwoComponentConfig,
    correlated_noise_pair,
    generate_arfima,
    generate_mbm,
    generate_two_component,
)
from .series import (
    TimeSeries,
    absolute_returns,
    accumulate,
    log_returns,
    volume_relative_deviation,
)
from .tables import write_curve, write_decomposition, write_grid, write_pair_curves

GENERATORS = {"mbm": MbmConfig, "arfima": ArfimaConfig, "arfima-pair": ArfimaConfig,
              "two-component": TwoComponentConfig}
TRANSFORMS = ("log-returns", "abs-returns", "volume-deviation")


class Params:
    """key=value parameters with typed access and unknown-key detection."""

    def __init__(self, tokens: list[str]):
        self.raw: dict[str, str] = {}
        for tok in tokens:
            if "=" not in tok:
                raise ParameterError(f"expected key=value, got {tok!r}")
            key, value = tok.split("=", 1)
            if not key or key in self.raw:
                raise ParameterError(f"bad or repeated parameter key {key!r}")
            self.raw[key] = value
        self.used: set[str] = set()

    def _read(self, key: str, default, parse, what: str, env: str | None = None):
        """parse(value of key), falling back to the env variable, then to default.

        Without a value or a default the key is missing; a value that parse
        rejects with ValueError is reported as f"{key}={value!r} {what}".
        """
        self.used.add(key)
        text = self.raw.get(key)
        if text is None and env is not None:
            text = os.environ.get(env)
        if text is None:
            if default is None:
                hint = f" (or set {env})" if env else ""
                raise ParameterError(f"missing required parameter {key!r}{hint}")
            return default
        try:
            return parse(text)
        except ValueError:
            raise ParameterError(f"{key}={text!r} {what}") from None

    def string(self, key: str, default: str | None, choices: tuple[str, ...]) -> str:
        def choice(text: str) -> str:
            if text not in choices:
                raise ValueError(text)
            return text
        return self._read(key, default, choice, f"invalid; expected one of {', '.join(choices)}")

    def number(self, key: str, default: float | None = None) -> float:
        return self._read(key, default, float, "is not a number")

    def integer(self, key: str, default: int | None = None) -> int:
        return self._read(key, default, int, "is not an integer")

    def tau_range(self, key: str, default: tuple[int, int]) -> tuple[int, int]:
        def span(text: str) -> tuple[int, int]:
            lo, dots, hi = text.partition("..")
            return (int(lo), int(hi)) if dots else (int(text), int(text))
        return self._read(key, default, span, "is not N or LO..HI")

    def seed(self) -> int:
        return self._read("seed", None, int, "is not an integer", env="MFHXA_SEED")

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.raw) - self.used)
        if unknown:
            raise ParameterError(f"unknown parameter key(s): {', '.join(unknown)}")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest(command: str, params: dict, inputs: list[Path], seed=None) -> list[str]:
    lines = [
        f"tool=mfhxa {__version__}",
        f"numpy={numpy.__version__}",
        f"scipy={scipy.__version__}",
        f"command={command}",
    ]
    for key in sorted(params):
        lines.append(f"{key}={params[key]}")
    for i, path in enumerate(inputs, start=1):
        lines.append(f"input{i}={path}")
        lines.append(f"input{i}_sha256={_sha256(path)}")
    if seed is not None:
        lines.append(f"seed={seed}")
    lines.append(f"timestamp={datetime.now(timezone.utc).isoformat()}")
    return lines


def _require_inputs(inputs, lo: int, hi: int) -> list[Path]:
    if not lo <= len(inputs) <= hi:
        want = str(lo) if lo == hi else f"{lo} or {hi}"
        raise ParameterError(f"expected {want} --in PATH argument(s), got {len(inputs)}")
    return [Path(p) for p in inputs]


# ---------------------------------------------------------------- generate

def _config_from_params(cls, params: Params, **given):
    """cls built from one key per dataclass field, in field order.

    A field's type picks the parser (float or int) and its default makes the
    key optional; seed goes through Params.seed. Fields in given are not read.
    """
    types = typing.get_type_hints(cls)
    values = dict(given)
    for field in dataclasses.fields(cls):
        if field.name in given:
            continue
        if field.name == "seed":
            values["seed"] = params.seed()
            continue
        default = None if field.default is dataclasses.MISSING else field.default
        parse = params.number if types[field.name] is float else params.integer
        values[field.name] = parse(field.name, default)
    return cls(**values)


def _arfima_pair(config: ArfimaConfig, d_y: float, rho: float) -> tuple[TimeSeries, TimeSeries]:
    """X from config and Y from config with d = d_y, driven by noises correlated by rho."""
    eps, nu = correlated_noise_pair(
        NoisePairConfig(rho=rho, length=config.burn_in + config.length, seed=config.seed)
    )
    return (generate_arfima(config, noise=eps),
            generate_arfima(dataclasses.replace(config, d=d_y), noise=nu))


def cmd_generate(name: str, params: Params, inputs, out: Path) -> int:
    _require_inputs(inputs, 0, 0)

    pair, given = {}, {}
    if name == "arfima-pair":
        # X takes d=d1; Y is the same config with d=d2, fed the correlated noise
        pair = {key: params.number(key) for key in ("d1", "d2", "rho")}
        given = {"d": pair["d1"]}
    cfg = _config_from_params(GENERATORS[name], params, **given)
    params.reject_unknown()
    if name == "arfima-pair":
        series = _arfima_pair(cfg, pair["d2"], pair["rho"])
    elif name == "two-component":
        series = generate_two_component(cfg)
    elif name == "arfima":
        series = (generate_arfima(cfg),)
    else:
        series = (generate_mbm(cfg),)

    meta = dataclasses.asdict(cfg)
    seed = meta.pop("seed", None)
    if pair:
        del meta["d"]
        meta.update(pair)
    meta = {k: format_number(v) if isinstance(v, float) else v for k, v in meta.items()}
    write_csv(
        out,
        manifest(f"generate {name}", meta, [], seed=seed),
        [name] if len(series) == 1 else ["x", "y"],
        [s.values for s in series],
    )
    return 0


# ---------------------------------------------------------------- transform

def cmd_transform(name: str, params: Params, inputs, out: Path) -> int:
    (in_path,) = _require_inputs(inputs, 1, 1)
    column = params.integer("col", 1)
    meta: dict = {"transform": name, "col": column}
    window = None
    if name == "volume-deviation":
        window = params.integer("window")
        meta["window"] = window
    params.reject_unknown()

    table = read_columns(in_path)
    dates, series = table[0], column_series(in_path, table, column)
    if name == "log-returns":
        result = log_returns(series)
    elif name == "abs-returns":
        result = absolute_returns(series)
    else:
        result = volume_relative_deviation(series, window)

    out_dates = dates[len(dates) - len(result):] if dates is not None else None
    write_csv(
        out,
        manifest(f"transform {name}", meta, [in_path]),
        [name],
        [result.values],
        dates=out_dates,
    )
    return 0


# ---------------------------------------------------------------- estimate

def _pair_config(params: Params, n_inputs: int, base: EstimationConfig,
                 **given) -> tuple[EstimationConfig, dict]:
    """(config, source) of estimate and decompose, refused before any input is read.

    source holds input, x_col and y_col, keyed as in the manifest; y_col
    defaults to x_col with one input and to 1 with two. config is base with
    the given fields and the tau_min, filter and min_fit_points keys applied.
    """
    mode = params.string("input", "levels", choices=("levels", "increments"))
    x_col = params.integer("x_col", 1)
    y_col = params.integer("y_col", x_col if n_inputs == 1 else 1)
    config = dataclasses.replace(
        base, **given,
        tau_min=params.integer("tau_min", base.tau_min),
        filter=params.string("filter", base.filter, choices=FILTERS),
        min_fit_points=params.integer("min_fit_points", base.min_fit_points),
    )
    params.reject_unknown()
    # a first window too short to fit would fail every q after the whole pass ran
    fitted = config.tau_max_range[0] - config.tau_min + 1
    if fitted < config.min_fit_points:
        raise ParameterError(
            f"tau_min={config.tau_min} leaves {fitted} taus up to the smallest tau_max="
            f"{config.tau_max_range[0]}, need min_fit_points={config.min_fit_points}"
        )
    return config, {"input": mode, "x_col": x_col, "y_col": y_col}


def _read_pair(paths: list[Path], source: dict):
    """X from column x_col of the first input, Y from column y_col of the last.

    Each input is read once. With one input and y_col == x_col the pair is a
    self-pair: the column is returned as both X and Y. Two inputs that both
    carry dates pair only when their dates are the same, row for row; an
    input without dates pairs by position.
    """
    x_col, y_col = source["x_col"], source["y_col"]
    x_table = read_columns(paths[0])
    series = [column_series(paths[0], x_table, x_col)]
    if len(paths) == 2 or y_col != x_col:
        y_table = read_columns(paths[1]) if len(paths) == 2 else x_table
        series.append(column_series(paths[-1], y_table, y_col))
        _check_dates(paths, x_table[0], y_table[0])
    if source["input"] == "increments":
        series = [accumulate(s) for s in series]
    return series[0], series[-1]


def _check_dates(paths: list[Path], x_dates, y_dates) -> None:
    """Refuse two dated inputs whose dates differ, naming the first row that differs."""
    if x_dates is None or y_dates is None or x_dates == y_dates:
        return
    for row, (a, b) in enumerate(zip(x_dates, y_dates), start=1):
        if a != b:
            raise MfhxaError(f"dates differ at data row {row}: {a!r} in {paths[0]}, "
                             f"{b!r} in {paths[-1]}; two dated inputs must have the same dates")
    raise MfhxaError(f"{paths[0]} has {len(x_dates)} dated rows and {paths[-1]} has "
                     f"{len(y_dates)}; two dated inputs must have the same dates")


def cmd_estimate(_name: None, params: Params, inputs, out: Path) -> int:
    preset = params.string("preset", "synthetic", choices=("synthetic", "real"))
    base = synthetic_preset() if preset == "synthetic" else real_preset()
    config, source = _pair_config(
        params, len(inputs), base,
        q_grid=q_range(params.number("q_min", base.q_grid[0]),
                       params.number("q_max", base.q_grid[-1]),
                       params.number("q_step", Q_STEP)),
        tau_max_range=params.tau_range("tau_max", base.tau_max_range),
        confidence=params.number("confidence", base.confidence),
    )
    paths = _require_inputs(inputs, 1, 2)
    x, y = _read_pair(paths, source)
    self_pair = y is x
    meta = {"preset": preset, "pair": "self" if self_pair else "xy", **source}
    comments = manifest("estimate", meta, paths)

    moments = pair_moments(x, y, config)
    curves = moments.curves()
    if self_pair:
        write_curve(f"{out}.curve.tsv", curves[0], comments)
    else:
        write_pair_curves(f"{out}.curve.tsv", *curves, comments)
    write_grid(f"{out}.grid.tsv", moments.grid("xy"), comments)

    if not curves[0].estimates:
        print("mfhxa: estimate: no q could be estimated; see the note column",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- decompose

def cmd_decompose(_name: None, params: Params, inputs, out: Path) -> int:
    q = params.number("q")
    tau_max = params.integer("tau_max", FIG2_CONFIG.tau_max_range[-1])
    config, source = _pair_config(params, len(inputs), FIG2_CONFIG, q_grid=(q,),
                                  tau_max_range=(tau_max, tau_max))
    paths = _require_inputs(inputs, 1, 2)
    x, y = _read_pair(paths, source)
    # q is written once, by write_decomposition
    meta = {"tau_min": config.tau_min, "tau_max": config.tau_max_range[0],
            "filter": config.filter, "min_fit_points": config.min_fit_points, **source}
    write_decomposition(out, pair_moments(x, y, config, split=True),
                        manifest("decompose", meta, paths))
    return 0


# ---------------------------------------------------------------- replicate

def _mbm_pair() -> tuple[TimeSeries, TimeSeries]:
    x = accumulate(generate_mbm(MbmConfig(m0=0.3, k=16)))
    y = accumulate(generate_mbm(MbmConfig(m0=0.4, k=16)))
    return (TimeSeries(x.values, "mbm_m0=0.3"), TimeSeries(y.values, "mbm_m0=0.4"))


def _arfima_profiles(rho: float, seed: int) -> tuple[TimeSeries, TimeSeries]:
    """Accumulated profiles of a correlated-innovation long-memory pair."""
    x, y = _arfima_pair(ArfimaConfig(d=0.3, length=10_000, seed=seed), 0.1, rho)
    return accumulate(x), accumulate(y)


def _two_component_profiles(w: float, seed: int) -> tuple[TimeSeries, TimeSeries]:
    x, y = generate_two_component(
        TwoComponentConfig(d1=0.3, d2=0.3, w=w, length=10_000, seed=seed)
    )
    return accumulate(x), accumulate(y)


CASCADE_PANELS = ("fig1a", "fig2a")  # the unseeded multifractal-cascade pair
RHO_PANELS = {"fig1b": (1.0,), "fig1c": (0.5,), "fig1d": (0.0,), "fig1e": (-0.5,),
              "fig1f": (-1.0,), "fig2b": (1.0, 0.5, -0.5, -1.0)}
W_PANELS = {"fig1g": 0.75, "fig1h": 0.5, "fig2c": 0.75, "fig2d": 0.5}
FIGURES = tuple(sorted({*CASCADE_PANELS, *RHO_PANELS, *W_PANELS}))
# the fig2 panels' config, and the defaults of decompose
FIG2_CONFIG = EstimationConfig(q_grid=(2.0,), tau_max_range=(20, 20))


def _panel_pairs(figure: str, seed):
    """(file name suffix, x, y, manifest parameters) for each pair of a figure."""
    if figure in CASCADE_PANELS:
        yield ("", *_mbm_pair(), {"process": "mbm", "m0_x": 0.3, "m0_y": 0.4, "k": 16})
    elif figure in RHO_PANELS:
        for rho in RHO_PANELS[figure]:
            suffix = f"_rho_{format_number(rho)}" if figure == "fig2b" else ""
            yield (suffix, *_arfima_profiles(rho, seed),
                   {"process": "arfima-pair", "d_x": 0.3, "d_y": 0.1, "rho": rho,
                    "length": 10000, "seed": seed})
    else:
        w = W_PANELS[figure]
        yield ("", *_two_component_profiles(w, seed),
               {"process": "two-component", "d1": 0.3, "d2": 0.3, "w": w,
                "length": 10000, "seed": seed})


def cmd_replicate(figure: str, params: Params, inputs, out: Path) -> int:
    _require_inputs(inputs, 0, 0)
    seed = None if figure in CASCADE_PANELS else params.seed()
    params.reject_unknown()
    pairs = list(_panel_pairs(figure, seed))  # a failing figure leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    for suffix, x, y, meta in pairs:
        comments = manifest(f"replicate {figure}", meta, [])
        if figure.startswith("fig1"):
            write_pair_curves(out / f"{figure}_curves.tsv",
                              *pair_moments(x, y, synthetic_preset()).curves(), comments)
        else:
            write_decomposition(out / f"{figure}{suffix}_decomposition.tsv",
                                pair_moments(x, y, FIG2_CONFIG, split=True), comments)
    return 0


# ---------------------------------------------------------------- entry point

# command -> (handler, what its first token names, the names it may take, help text);
# a handler is called as handler(name, params, inputs, out), with name None for
# a command that takes no name and out the --out path
COMMANDS = {
    "generate": (cmd_generate, "generator", GENERATORS,
                 "write a simulated process to CSV (mbm, arfima, arfima-pair, two-component)"),
    "transform": (cmd_transform, "transform", TRANSFORMS,
                  "apply log-returns, abs-returns, or volume-deviation to a CSV column"),
    "estimate": (cmd_estimate, None, (),
                 "estimate generalized Hurst curves (curve + grid tables)"),
    "decompose": (cmd_decompose, None, (),
                  "split the scaling function into product and covariance parts"),
    "replicate": (cmd_replicate, "figure id", FIGURES,
                  "run a named synthetic analysis (fig1a..fig1h, fig2a..fig2d)"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfhxa",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Generalized bivariate Hurst exponents from height-height covariance\n"
            "scaling: process generation, transforms, estimation, covariance\n"
            "decomposition, and figure replication."
        ),
        epilog="commands:\n" + "\n".join(
            f"  {command:<11}{help_text}" for command, (*_, help_text) in COMMANDS.items()),
    )
    parser.add_argument("--version", action="version",
                        version=f"mfhxa {__version__}")
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("tokens", nargs="*", default=[], metavar="key=value",
                        help="name (for generate/transform/replicate) and parameters")
    parser.add_argument("--in", dest="inputs", action="append", default=[],
                        metavar="PATH", help="input CSV (repeatable)")
    parser.add_argument("--out", type=Path, metavar="PATH",
                        help="output file, prefix, or directory")
    # keys, --in and --out may come in any order
    args = parser.parse_intermixed_args(argv)

    run, noun, names, _ = COMMANDS[args.command]
    tokens = list(args.tokens)
    name = tokens.pop(0) if names and tokens and "=" not in tokens[0] else None
    try:
        if names and name is None:
            stray = next((tok for tok in tokens if "=" not in tok), None)
            if stray is not None:
                raise ParameterError(f"expected key=value, got {stray!r}; the {noun} "
                                     "must come first, before the keys")
        params = Params(tokens)
        if names and name not in names:
            raise ParameterError(f"unknown {noun} {name!r}; expected one of {', '.join(names)}")
        if args.out is None:
            raise ParameterError("missing --out PATH")
        return run(name, params, args.inputs, args.out)
    except (MfhxaError, OSError) as exc:
        print(f"mfhxa: {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
