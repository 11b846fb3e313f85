"""Command-line front end: the one module that reads or writes JSON.

Six subcommands, declared once in `_COMMANDS` (strength, accuracy,
faultpaths, truncate, levelred, threshold), share one shape: load a JSON
experiment config, validate it against the shipped schema, read it into the
typed values the library takes, run the corresponding library call, and
write a deterministic report with `emit_report(command, config, results,
records)`. JSON reports embed the resolved config and provenance, so
identical config + seed gives byte-identical output regardless of worker
count. CSV reports are the flat per-record projection meant for plotting
tools.

Report format. `json_dumps` writes the results as built, in one pass: mappings
with keys sorted as strings (non-str keys are written as `str(key)`), `,` and
`:` separators with no spaces, strings as `json.dumps(s, ensure_ascii=False)`,
floats (numpy floats included) as `"%.17g"`, numpy ints and bools as their
Python values, lists, tuples and numpy arrays as arrays, and sets and
frozensets as sorted arrays. A float array is checked for finiteness once and
formatted in bulk, a `"%.17g"` template per zero pattern of rows in a chunk,
with each exact +0.0 written as `0` unformatted, to the same bytes as one value
at a time. A non-finite float raises ValueError and any other type (complex
included) raises TypeError. Reports end with one LF. A CSV cell is empty for
None, 1/0 for a bool, the same `"%.17g"` for a float and `str()` otherwise;
numpy scalars are read with `.item()` first, and a cell that would need quoting
raises ValueError.

Exit codes: 0 success, 2 config/validation error (the command-line
overrides are validated with the config, and a schema failure reads
`config <JSON path>: <message>`; a key the run does not read, at any depth
of `params`, or a value of the wrong kind is refused before any work: every
number in `params` goes through `number_from_json`, an integer must be a
JSON integer and a real a finite non-bool number), 3 refused work (the
`DIM_CAP` dimension cap, the `ie_check` lattice cap, the Monte Carlo leaf
budget or the gadget-graph size cap, the diamond ascent's `RESTARTS_CAP`,
or, as a last resort, running out of memory). Errors print a single JSON object
{"error": reason, "exit": code} to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import sys
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import replace
from functools import cache
from importlib import resources
from itertools import chain
from json.encoder import encode_basestring

import jsonschema
import numpy as np

from . import __version__
from .channels import (
    NOISE_KINDS,
    Channel,
    CorrelationGrid,
    HamiltonianTerm,
    NoiseSpec,
    diamond_distance,
    make_noise_channel,
    noise_strengths,
    strength_gaussian,
    strength_local_hamiltonian,
    strength_long_range,
    strength_markovian,
    strength_unitary_couplings,
)
from .circuit import (
    FIXED_GATES, KET0, KET1, KET_PLUS, Circuit, EnvironmentSpec, Location, environment_strength, rz
)
from .faultpaths import (
    ExhaustiveCapError,
    accuracy_bound,
    accuracy_delta_exact,
    verify_ie_identity,
    zeta_earliest,
    zeta_subset,
)
from .gadgets import (
    BudgetExceededError,
    FaultConfig,
    Gadget,
    GadgetGraph,
    iterate_failure_map,
    level_reduce_mc,
    sample_fault_config,
    truncate_and_classify,
)
from .matcore import DimensionCapError, checked_dims, qubit_dims, trace_norm
from .threshold import SchemeParams, pseudothreshold_mc, threshold_report, threshold_value

RESTARTS_CAP = 4096  # most diamond-ascent starts a config may ask for


# -- deterministic serialization ----------------------------------------------


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return "%.17g" % x


_CHUNK_ROWS = 1 << 15


def _dump_array(a: np.ndarray) -> str:
    if a.dtype.kind != "f" or a.ndim == 0:
        return _dump(a.tolist())
    if not np.isfinite(a).all():
        _fmt_float(a[~np.isfinite(a)][0].item())  # raises, naming the first one in row-major order

    def template(zero, shape=a.shape[1:]):  # a row's, +0.0 as "0": the bytes of "%.17g" % 0.0
        if not shape:
            return "0" if next(zero) else "%.17g"
        return "[" + ",".join([template(zero, shape[1:]) for _ in range(shape[0])]) + "]"

    def chunk(c):  # templates, one per zero pattern (an int key up to 62 cells), and values
        zero = ((c == 0) & ~np.signbit(c)).reshape(len(c), -1)
        rows = [template(iter(zero[0]))] * len(c)
        if not (zero == zero[0]).all():
            key = zero @ (1 << np.arange(zero.shape[1])) if zero.shape[1] < 63 else zero
            _, first, inv = np.unique(key, axis=0, return_index=True, return_inverse=True)
            rows = np.array([template(iter(zero[j])) for j in first], dtype=object)[inv].tolist()
        return ",".join(rows), c[~zero.reshape(c.shape)] if zero.any() else c.ravel()

    chunks = map(chunk, (a[i:i + _CHUNK_ROWS] for i in range(0, len(a), _CHUNK_ROWS)))
    return "[" + ",".join(t % tuple(v.tolist()) for t, v in chunks) + "]"


def _dump_list(o) -> str:
    return "[" + ",".join(map(_dump, o)) + "]"


def _dump_mapping(o) -> str:
    return "{" + ",".join(
        encode_basestring(str(k)) + ":" + _dump(o[k]) for k in sorted(o, key=str)
    ) + "}"


_EXACT = {  # exact types only; subclasses and numpy types take the isinstance chain
    float: _fmt_float, int: int.__repr__, str: encode_basestring,
    bool: lambda o: "true" if o else "false", type(None): lambda o: "null",
    list: _dump_list, tuple: _dump_list, dict: _dump_mapping,
}


def _dump(o) -> str:
    exact = _EXACT.get(type(o))
    if exact is not None:
        return exact(o)
    if isinstance(o, (float, np.floating)):
        return _fmt_float(o)
    if isinstance(o, str):
        return encode_basestring(o)
    if isinstance(o, np.bool_):
        return "true" if o else "false"
    if isinstance(o, (int, np.integer)):
        return str(int(o))
    if isinstance(o, np.ndarray):
        return _dump_array(o)
    if isinstance(o, (set, frozenset)):
        return _dump(sorted(o))
    if isinstance(o, Mapping):
        return _dump_mapping(o)
    if isinstance(o, Sequence):
        return _dump(list(o))
    raise TypeError(f"cannot serialize {type(o).__name__}")


def json_dumps(obj) -> str:
    """Sorted-key JSON with every float printed to 17 significant digits;
    the module docstring lists the accepted types."""
    return _dump(obj)


def _csv_cell(v) -> str:
    if isinstance(v, np.generic):
        v = v.item()
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, int):
        return str(v)
    s = str(v)
    if "," in s or "\n" in s or '"' in s:
        raise ValueError(f"CSV field needs quoting, which the dialect forbids: {s!r}")
    return s


def emit_report(command: str, config: dict, results: dict, records: list[dict]) -> bytes:
    """Serialize a report in the config's output format; identical input
    gives identical bytes.

    A JSON report embeds the resolved config minus workers and output path.
    Those two tune execution and placement, not results; keeping them out
    preserves byte-identity across worker counts and across runs that only
    differ in where the report lands. A CSV report is the records alone.
    """
    fmt = config["output"]["format"]
    if fmt == "json":
        embedded = {k: v for k, v in config.items() if k != "workers"}
        embedded["output"] = {"format": fmt}
        provenance = {"package": "ftlab", "version": __version__, "seed": config["seed"],
                      "numpy": np.__version__, "python": platform.python_version()}
        doc = {"command": command, "config": embedded, "provenance": provenance,
               "results": results}
        _validate(doc, "report")
        return (json_dumps(doc) + "\n").encode("utf-8")
    header = list(records[0]) if records else []
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for rec in records:
        buf.write(",".join(_csv_cell(rec.get(k)) for k in header) + "\n")
    return buf.getvalue().encode("utf-8")


# -- config handling -----------------------------------------------------------


@cache
def _validator(name: str):
    """The shipped schema `name`, checked against its meta-schema once."""
    text = resources.files("ftlab").joinpath(f"schemas/{name}.schema.json").read_text()
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(instance, name: str) -> None:
    error = jsonschema.exceptions.best_match(_validator(name).iter_errors(instance))
    if error is not None:
        raise ValueError(f"{name} {error.json_path}: {error.message}")


def _refuse_constant(name: str):
    raise ValueError(
        f"config holds the non-finite number {name}: scalars must be finite numbers, "
        "and matrices lists of [re, im] pairs of finite numbers"
    )


def _load_config(path: str, args: argparse.Namespace) -> dict:
    """The config file with the command-line overrides applied, validated once.

    JSON has no NaN or Infinity; the literals Python's parser would accept
    are refused here, before any work.
    """
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh, parse_constant=_refuse_constant)
    if isinstance(config, dict):
        flags = {"seed": args.seed, "workers": args.workers}
        config.update((k, v) for k, v in flags.items() if v is not None)
        flags = {k: v for k, v in (("path", args.out), ("format", args.format)) if v is not None}
        if flags and isinstance(config.setdefault("output", {}), dict):
            config["output"].update(flags)
    _validate(config, "config")
    if config.get("command", args.command) != args.command:
        raise ValueError(
            f"config is for command {config['command']!r}, invoked as {args.command!r}"
        )
    config["command"] = args.command
    config.setdefault("params", {})
    config.setdefault("seed", 0)
    config.setdefault("output", {}).setdefault("format", "json")
    return config


# -- config readers ------------------------------------------------------------
# Every value below the top level of a config is read here, checked and never
# cast. Complex arrays travel as flat row-major lists of [re, im] pairs.


def _object(obj, name: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ValueError(f"{name} must be an object")
    return obj


def number_from_json(value, name: str, kind: type = float):
    """A JSON scalar checked, never cast: kind=int takes a JSON integer and
    kind=float a finite JSON number, an integer widened. A bool, a string
    or any other value raises ValueError naming `name`."""
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind or kind is float and not math.isfinite(value):
        noun = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return value


def numbers_from_json(value, name: str, kind: type = float) -> list:
    """A JSON list whose entries are each read by `number_from_json`."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a list, got {value!r}")
    return [number_from_json(v, f"{name} entry", kind) for v in value]


_REQUIRED = object()


def _param(obj: Mapping, key: str, kind: type = float, default=_REQUIRED, each: bool = False):
    """obj[key] read by `number_from_json`, or with `each` by `numbers_from_json`;
    `default` when the key is absent, and a default of None also stands for
    a null value and is returned unread."""
    value = obj[key] if default is _REQUIRED else obj.get(key, default)
    if value is None is default:
        return None
    return (numbers_from_json if each else number_from_json)(value, key, kind)


def _unread(obj, name: str, *reads: str) -> Mapping:
    """The object `name`, refused before any work if it holds a key outside
    `reads`, all this run reads of it."""
    extra = sorted(set(_object(obj, name)) - set(reads))
    if extra:
        raise ValueError(f"{name} key {extra[0]!r} is not read: this run reads {', '.join(reads)}")
    return obj


def _location_key(key: str, name: str) -> int:
    """A `noise` or `couplings` key: a location index in canonical decimal."""
    if key.removeprefix("-").isdecimal() and str(int(key)) == key:
        return int(key)
    raise ValueError(f"{name} key must be a location index in decimal, got {key!r}")


def _reals(value, name: str) -> np.ndarray:
    """A nested list of finite non-bool JSON numbers as a float64 array, its
    entry types checked in one pass; `number_from_json` names a bad entry."""
    arr = np.array(value, dtype=object)
    if set(map(type, arr.flat)) <= {int, float}:
        try:
            out = arr.astype(np.float64)
        except OverflowError:  # an int beyond float range
            out = np.array(math.inf)
        if np.isfinite(out).all():
            return out
    for v in arr.flat:  # one of them raises
        number_from_json(v, f"{name} entry")


def complex_pairs(a: np.ndarray) -> np.ndarray:
    """Row-major `(size, 2)` float64 array of `[re, im]` rows: the JSON form as an array."""
    flat = np.ascontiguousarray(a, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2)


def matrix_to_json(m: np.ndarray) -> list[list[float]]:
    return complex_pairs(m).tolist()


def vector_from_json(obj) -> np.ndarray:
    """Complex128 vector from a list of `[re, im]` pairs of finite JSON numbers.

    The pairs are read in bulk. A string, null or nested entry, a pair of
    another length, a non-finite entry or an int beyond float range is
    refused; bools read as 0 and 1.
    """
    try:
        if set(map(len, obj)) - {2}:
            raise ValueError("a pair must have two entries")
        # array("d") takes ints, floats and bools only, so a string or null is refused
        flat = np.frombuffer(array("d", chain.from_iterable(obj)), np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"expected a list of [re, im] pairs: {exc}") from None
    if not np.isfinite(flat).all():
        raise ValueError("expected a list of [re, im] pairs of finite numbers")
    return flat


def matrix_from_json(obj) -> np.ndarray:
    """Square complex128 matrix; an empty one or a side over DIM_CAP is refused."""
    flat = vector_from_json(obj)
    side = math.isqrt(flat.size)
    if side * side != flat.size:
        raise ValueError(f"{flat.size} entries do not fill a square matrix")
    if side != 1:
        checked_dims((side,))  # as one factor: refuses side 0 and a side over DIM_CAP
    return flat.reshape(side, side)


def noise_spec_from_json(obj: Mapping, *also: str, name: str = "noise spec") -> NoiseSpec:
    """A spec reads its kind and that kind's `NOISE_KINDS` fields; a key
    outside them and `also` is refused, naming the spec `name`."""
    kind = _object(obj, name).get("kind")
    if type(kind) is not str or kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    fields = NOISE_KINDS[kind][0]
    _unread(obj, name, "kind", *fields, *also)
    return NoiseSpec(
        kind, **{k: matrix_from_json(obj[k]) if k == "e_op" else _param(obj, k) for k in fields}
    )


def noise_map_from_json(obj: Mapping) -> dict[int, Channel]:
    """Per-location noise: {location index: noise spec + optional support}."""
    return {
        _location_key(key, "noise"): make_noise_channel(
            noise_spec_from_json(entry, "support", name=f"noise {key!r}"),
            _param(entry, "support", int, None, each=True),
        )
        for key, entry in _object(obj, "noise map").items()
    }


def hamiltonian_terms_from_json(obj: Sequence) -> list[HamiltonianTerm]:
    """Terms as [{support, op, label}]; label an int or a two-int list."""
    if type(obj) is not list:
        raise ValueError("expected a list of Hamiltonian terms")
    terms = []
    for i, entry in enumerate(obj):
        _unread(entry, f"terms[{i}]", "support", "op", "label")
        pair = type(entry.get("label")) is list
        label = _param(entry, "label", int, each=pair)
        op = matrix_from_json(entry["op"])
        terms.append(HamiltonianTerm(_param(entry, "support", int, each=True), op, label))
    return terms


def correlation_grid_from_json(obj: Mapping) -> CorrelationGrid:
    """Grid as {delta_abs: nested 4-d array, cell_volume, gate_regions}."""
    obj = _unread(obj, "correlation grid", "delta_abs", "cell_volume", "gate_regions")
    regions = obj["gate_regions"]
    if type(regions) is not list:
        raise ValueError(f"gate_regions must be a list, got {regions!r}")
    return CorrelationGrid(
        delta_abs=_reals(obj["delta_abs"], "delta_abs"),
        cell_volume=_param(obj, "cell_volume"),
        gate_regions=tuple(tuple(numbers_from_json(r, "gate_regions", int)) for r in regions),
    )


_NAMED_STATES = {"0": KET0, "1": KET1, "+": KET_PLUS}
_PAYLOADS = {"prep": ("state",), "gate": ("gate",), "measure": ("projectors",), "identity": ()}
_RZ_PATTERN = re.compile(r"Rz\((-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)\)")


def gate_from_json(obj) -> np.ndarray:
    """A named generator (X, Y, Z, H, CNOT, Rz(theta), theta a JSON number
    literal) or a dense matrix."""
    if isinstance(obj, str):
        if obj in FIXED_GATES:
            return FIXED_GATES[obj]
        m = _RZ_PATTERN.fullmatch(obj)
        if m:
            return rz(number_from_json(json.loads(m.group(1)), "Rz angle"))
        raise ValueError(f"unknown gate name {obj!r}")
    return matrix_from_json(obj)


def _state_from_json(obj) -> np.ndarray:
    if isinstance(obj, str):
        try:
            return _NAMED_STATES[obj]
        except KeyError:
            raise ValueError(f"unknown state name {obj!r}") from None
    return vector_from_json(obj)


def circuit_from_json(obj: Mapping) -> Circuit:
    """Build a circuit from {n_system, locations: [...], final_measure?}.

    Locations are listed in time order and numbered 1..L; each entry gives
    kind and support plus a payload ("state" for preps, "gate" for gates,
    "projectors" for non-default measurements) and optionally an explicit
    "step" and a "condition": [measure index, outcome position].
    final_measure is a list of qubits to read out in Z; omitted means all.
    """
    n_system = _param(_unread(obj, "circuit config", "n_system", "locations", "final_measure"),
                      "n_system", int)
    locs = []
    for pos, entry in enumerate(obj.get("locations", [])):
        name = f"locations[{pos}]"
        entry = _object(entry, name)
        index = pos + 1
        step = _param(entry, "step", int, index)
        kind = entry["kind"]
        if not isinstance(kind, str) or kind not in _PAYLOADS:
            raise ValueError(f"unknown location kind {kind!r}")
        _unread(entry, name, "kind", "support", "step", "condition", *_PAYLOADS[kind])
        support = _param(entry, "support", int, each=True)
        condition = _param(entry, "condition", int, None, each=True)
        if kind == "prep":
            loc = Location.prep(index, step, support, _state_from_json(entry["state"]))
        elif kind == "gate":
            loc = Location.gate_on(index, step, support, gate_from_json(entry["gate"]), condition)
        elif kind == "measure":
            projs = entry.get("projectors")
            if projs is not None:
                projs = [matrix_from_json(p) for p in projs]
            loc = Location.measure(index, step, support, projs)
        else:
            loc = Location.wait(index, step, support)
        if condition is not None and kind != "gate":  # kept for the circuit check to refuse
            loc = replace(loc, condition=condition)
        locs.append(loc)
    fm = _param(obj, "final_measure", int, None, each=True)
    return Circuit(n_system, tuple(locs), range(n_system) if fm is None else fm)


def environment_spec_from_json(obj: Mapping) -> EnvironmentSpec:
    """Environment as {n_env, initial?, couplings: {loc: {support, unitary}}}.

    The initial state defaults to |0...0>; coupling supports use global
    indices with the environment block appended after the system block.
    """
    n_env = _param(_unread(obj, "environment spec", "n_env", "initial", "couplings"), "n_env", int)
    side = math.prod(qubit_dims(max(n_env, 0)))  # an over-cap environment is refused here
    initial = obj.get("initial")
    vec = np.eye(1, side, dtype=np.complex128)[0] if initial is None else vector_from_json(initial)
    couplings = {}
    for key, entry in _object(obj.get("couplings", {}), "environment couplings").items():
        support = _param(_unread(entry, f"coupling {key!r}", "support", "unitary"), "support", int,
                         each=True)
        ch = Channel.unitary(matrix_from_json(entry["unitary"]), qubit_dims(len(support)), support)
        couplings[_location_key(key, "couplings")] = ch
    return EnvironmentSpec(n_env, vec, couplings)


def gadget_graph_from_json(obj: Mapping) -> tuple[GadgetGraph, int]:
    """Build a graph from {"gadgets": [{"own_locations", "er_out"}], "t"}.

    "er_out" may be one {"count", "to"} object or a list of them; "to" is
    the 0-based index of the consuming gadget.
    """
    raw = _unread(obj, "gadget graph config", "gadgets", "t").get("gadgets")
    if type(raw) is not list or not raw:
        raise ValueError("config needs a nonempty gadgets list")
    gadgets = []
    for i, entry in enumerate(raw):
        own = _param(_unread(entry, f"gadgets[{i}]", "own_locations", "er_out"), "own_locations", int)
        er_raw = entry.get("er_out", [])
        if isinstance(er_raw, Mapping):
            er_raw = [er_raw]
        ers = [_unread(e, f"gadgets[{i}] er_out entry", "count", "to") for e in er_raw]
        er = tuple((_param(e, "count", int), _param(e, "to", int)) for e in ers)
        gadgets.append(Gadget(own, er))
    t = _param(obj, "t", int, 1)
    if t < 0:
        raise ValueError("t must be >= 0")
    return GadgetGraph(tuple(gadgets)), t


# -- command implementations ---------------------------------------------------


_STRENGTH_READS = {  # the params each evaluator reads besides "evaluator"
    "markovian": ("noisy", "ideal"), "diamond": ("a", "b", "restarts"),
    "local_hamiltonian": ("terms", "t0"), "long_range": ("terms", "t0", "c"),
    "gaussian": ("grid", "c"), "unitary_couplings": ("couplings",),
    "environment": ("environment",),
}


def _cmd_strength(params: dict, seed: int, workers: int) -> tuple[dict, list[dict]]:
    ev = params.get("evaluator")
    if not isinstance(ev, str) or ev not in _STRENGTH_READS:
        raise ValueError(f"unknown strength evaluator {ev!r}")
    _unread(params, "params", "evaluator", *_STRENGTH_READS[ev])
    kwargs = {"c": _param(params, "c")} if "c" in params else {}
    if ev == "markovian":
        noisy = make_noise_channel(noise_spec_from_json(params["noisy"]))
        u = gate_from_json(params["ideal"]) if "ideal" in params else np.eye(noisy.dim)
        eps = strength_markovian(noisy, Channel.unitary(u, noisy.dims, noisy.support))
        results = {"evaluator": ev, "strength": eps}
    elif ev == "diamond":
        restarts = _param(params, "restarts", int, 32)
        if restarts > RESTARTS_CAP:
            raise ExhaustiveCapError(f"diamond ascent capped at restarts <= {RESTARTS_CAP}")
        a = make_noise_channel(noise_spec_from_json(params["a"]))
        b = make_noise_channel(noise_spec_from_json(params["b"]))
        lo, hi = diamond_distance(a, b, restarts=restarts, seed=seed)
        results = {"evaluator": ev, "lower": lo, "upper": hi}
    elif ev == "local_hamiltonian":
        t0 = _param(params, "t0")
        eps = strength_local_hamiltonian(hamiltonian_terms_from_json(params["terms"]), t0)
        results = {"evaluator": ev, "strength": eps}
    elif ev == "long_range":
        t0 = _param(params, "t0")
        eps = strength_long_range(hamiltonian_terms_from_json(params["terms"]), t0, **kwargs)
        results = {"evaluator": ev, "strength": float(eps), "within_validity": eps.within_validity}
    elif ev == "gaussian":
        grid = correlation_grid_from_json(params["grid"])
        results = {"evaluator": ev, "strength": strength_gaussian(grid, **kwargs)}
    elif ev == "unitary_couplings":
        ops = [matrix_from_json(m) for m in params["couplings"]]
        results = {"evaluator": ev, "strength": strength_unitary_couplings(ops)}
    else:
        env = environment_spec_from_json(params["environment"])
        results = {"evaluator": ev, "strength": environment_strength(env)}
    return results, [dict(results)]


def _cmd_accuracy(params: dict, seed: int, workers: int) -> tuple[dict, list[dict]]:
    env = "environment" in params
    _unread(params, "params", "circuit", "environment" if env else "noise")
    c = circuit_from_json(params["circuit"])
    if env:
        spec = environment_spec_from_json(params["environment"])
        delta = accuracy_delta_exact(c, spec)
        eps = environment_strength(spec)
    else:
        noise = noise_map_from_json(params.get("noise", {}))
        delta = accuracy_delta_exact(c, noise)
        eps = max(noise_strengths(list(noise.values())), default=0.0)
    variant = "non_markovian" if env else "linear"  # the bound criterion 2 or 1 certifies
    bound = accuracy_bound(c.size, eps, variant)
    results = {"delta": delta, "eps": eps, "locations": c.size, "variant": variant,
               "bound": bound, "within_bound": bool(delta <= bound + 1e-12)}
    return results, [dict(results)]


_FAULTPATH_READS = {"subset": ("subset", "complement"), "earliest": ("r",)}


def _cmd_faultpaths(params: dict, seed: int, workers: int) -> tuple[dict, list[dict]]:
    mode = params.get("mode")
    if mode == "ie_check":
        _unread(params, "params", "mode", "L0", "t")
        verdict = verify_ie_identity(_param(params, "L0", int), _param(params, "t", int))
        results = {
            "mode": mode,
            "ok": verdict.ok,
            "counterexample": list(verdict.counterexample or ()),
            "detail": verdict.detail,
        }
        return results, [{k: results[k] for k in ("mode", "ok", "detail")}]
    if mode not in ("subset", "earliest"):
        raise ValueError(f"unknown faultpaths mode {mode!r}")
    _unread(params, "params", "mode", "circuit", "noise", *_FAULTPATH_READS[mode])
    c = circuit_from_json(params["circuit"])
    noise = noise_map_from_json(params.get("noise", {}))
    if mode == "subset":
        subset = _param(params, "subset", int, each=True)
        if len(set(subset)) != len(subset):
            raise ValueError(f"subset repeats a location: {subset}")
        complement = params.get("complement", "noisy")
        zeta = zeta_subset(c, noise, subset, complement=complement)
        results = {"mode": mode, "subset": sorted(subset), "complement": complement}
    else:
        r = _param(params, "r", int)
        zeta = zeta_earliest(c, noise, r)
        results = {"mode": mode, "r": r}
    results["trace_norm"] = trace_norm(zeta)
    results["matrix"] = complex_pairs(zeta)
    return results, [{k: v for k, v in results.items() if k not in ("matrix", "subset")}]


def _cmd_truncate(params: dict, seed: int, workers: int) -> tuple[dict, list[dict]]:
    _unread(params, "params", "graph", "faults" if "faults" in params else "eps")
    graph, t = gadget_graph_from_json(params["graph"])
    if "faults" in params:
        fc = FaultConfig(_param(params, "faults", int, each=True))
    else:
        fc = sample_fault_config(graph, _param(params, "eps"), seed)
    cls = truncate_and_classify(graph, fc, t)
    per_gadget = [
        {"gadget": i, "status": status, "fault_count": len(ids & fc.faulty),
         "truncated_size": len(ids)}
        for i, (status, ids) in enumerate(zip(cls.statuses, cls.truncated))
    ]
    results = {
        "t": t,
        "total_locations": graph.total_locations,
        "faults": sorted(fc.faulty),
        "statuses": list(cls.statuses),
        "truncated": [sorted(ids) for ids in cls.truncated],
        "any_bad": cls.any_bad,
    }
    return results, per_gadget


def _cmd_levelred(params: dict, seed: int, workers: int) -> tuple[dict, list[dict]]:
    _unread(params, "params", "levels", "L0", "t", "eps", "samples")
    levels, L0, t, samples = (_param(params, k, int) for k in ("levels", "L0", "t", "samples"))
    eps = _param(params, "eps")
    ests = level_reduce_mc(levels, L0, t, eps, samples, seed, workers=workers)
    exact = iterate_failure_map(levels, L0, t, eps)
    rows = [
        {"level": e.level, "estimate": e.probability, "stderr": e.stderr, "trials": e.trials,
         "exact": x}
        for e, x in zip(ests, exact)
    ]
    results = {"L0": L0, "t": t, "eps": eps, "samples": samples, "levels": rows}
    return results, [dict(r) for r in rows]


def _cmd_threshold(params: dict, seed: int, workers: int) -> tuple[dict, list[dict]]:
    _unread(params, "params", "L0", "t", "xi", "L", "delta0", "eps", "pseudothreshold")
    scheme = SchemeParams(
        L0=_param(params, "L0", int),
        t=_param(params, "t", int),
        xi=_param(params, "xi", float, math.e),
    )
    target = None
    ints = {"L0": scheme.L0}
    if {"L", "delta0", "eps"} & params.keys():  # read together, each required
        target = _param(params, "L", int), _param(params, "delta0"), _param(params, "eps")
        ints["L"] = target[0]
    for key, value in ints.items():  # the level arithmetic takes floats
        if value > sys.float_info.max:
            raise ValueError(f"{key} must fit a float, at most {sys.float_info.max:.6g}")
    sub = _object(params.get("pseudothreshold", {}), "pseudothreshold")
    _unread(sub, "pseudothreshold", "samples", "mode")
    samples = _param(sub, "samples", int, 10**5)
    results: dict = {
        "L0": scheme.L0,
        "t": scheme.t,
        "xi": scheme.xi,
        "eps0": threshold_value(scheme),
    }
    records: list[dict] = []
    if target is not None:
        rep = threshold_report(*target, scheme)
        results.update(
            per_level=list(rep.per_level),
            k_required=rep.k_required,
            overhead_ratio=rep.overhead_ratio,
            exponent_a=rep.exponent_a,
        )
        records = rep.rows()
    else:
        a = math.log(scheme.L0) / math.log(scheme.t + 1)
        results["exponent_a"] = a
        records = [{"eps0": results["eps0"], "exponent_a": a}]
    if "pseudothreshold" in params:
        mode = sub.get("mode", "exact")
        crossing, ci = pseudothreshold_mc(scheme, samples, seed, mode=mode)
        results["pseudothreshold"] = {"crossing": crossing, "ci_low": ci[0], "ci_high": ci[1],
                                      "mode": mode}
    return results, records


_COMMANDS = {  # name: (runner of (params, seed, workers) -> (results, records), help)
    "strength": (_cmd_strength, "evaluate a noise-strength model"),
    "accuracy": (_cmd_accuracy, "exact output deviation of a noisy circuit vs its bound"),
    "faultpaths": (_cmd_faultpaths, "materialize fault-path sums or check counting identities"),
    "truncate": (_cmd_truncate, "classify gadgets as good/bad after the truncation sweep"),
    "levelred": (_cmd_levelred, "Monte Carlo level-reduction failure estimates"),
    "threshold": (_cmd_threshold, "threshold, per-level strengths, required level, overhead"),
}


# -- entry point ----------------------------------------------------------------


def _fail(code: int, reason: str) -> int:
    sys.stderr.write(json.dumps({"error": reason, "exit": code}) + "\n")
    return code


def _write_atomic(path: str, payload: bytes) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftlab",
        description="noise-strength accounting and threshold arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="most threads a levelred run starts, one per chunk (default: machine parallelism)",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config, args)
        workers = config.get("workers") or os.cpu_count() or 1
        results, records = _COMMANDS[args.command][0](config["params"], config["seed"], workers)
        payload = emit_report(args.command, config, results, records)
        path = config["output"].get("path")
        if path:
            _write_atomic(path, payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except (DimensionCapError, ExhaustiveCapError, BudgetExceededError) as exc:
        return _fail(3, str(exc))
    except MemoryError as exc:
        return _fail(3, f"out of memory: {exc}" if str(exc) else "out of memory")
    except (ValueError, TypeError, KeyError, OSError) as exc:
        reason = str(exc) if str(exc) else type(exc).__name__
        if isinstance(exc, KeyError):
            reason = f"missing config key: {reason}"
        return _fail(2, reason)
    return 0


if __name__ == "__main__":
    sys.exit(main())
