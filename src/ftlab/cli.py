"""Command-line front end.

Six subcommands (strength, accuracy, faultpaths, truncate, levelred,
threshold) share one shape: load a JSON experiment config, validate it
against the shipped schema, run the corresponding library call, and write a
deterministic report. JSON reports embed the resolved config and provenance,
so identical config + seed gives byte-identical output regardless of worker
count. CSV reports are the flat per-record projection meant for plotting
tools.

Report format. `json_dumps` writes the results as built, in one pass:
mappings with keys sorted as strings (non-str keys are written as
`str(key)`), `,` and `:` separators with no spaces, strings as
`json.dumps(s, ensure_ascii=False)`, floats (numpy floats included) as
`"%.17g"`, numpy ints and bools as their Python values, lists, tuples and
numpy arrays as arrays, and sets and frozensets as sorted arrays. A float
array is checked for finiteness once and formatted in bulk, a `"%.17g"`
template per chunk of rows, to the same bytes as one value at a time. A
non-finite float raises ValueError and any other type (complex included)
raises TypeError. Reports end with one LF. A CSV cell is empty for None,
1/0 for a bool, the same `"%.17g"` for a float and `str()` otherwise;
numpy scalars are read with `.item()` first, and a cell that would need
quoting raises ValueError.

Exit codes: 0 success, 2 config/validation error, 3 refused work (the
`DIM_CAP` dimension cap, an exhaustive-enumeration cap, the diamond
ascent's `RESTARTS_CAP`, the Monte Carlo budget, or, as a last resort,
running out of memory). Errors print a single JSON object
{"error": reason, "exit": code} to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from json.encoder import encode_basestring
from typing import Mapping, Sequence

import jsonschema
import numpy as np

from . import __version__
from .channels import (
    Channel,
    correlation_grid_from_json,
    diamond_distance,
    hamiltonian_terms_from_json,
    make_noise_channel,
    noise_map_from_json,
    noise_spec_from_json,
    strength_gaussian,
    strength_local_hamiltonian,
    strength_long_range,
    strength_markovian,
    strength_unitary_couplings,
)
from .circuit import (
    circuit_from_json,
    environment_spec_from_json,
    environment_strength,
    gate_from_json,
)
from .faultpaths import (
    SUBSET_SIZE_CAP,
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
    gadget_graph_from_json,
    iterate_failure_map,
    level_reduce_mc,
    sample_fault_config,
    truncate_and_classify,
)
from .matcore import DimensionCapError, complex_pairs, matrix_from_json, trace_norm
from .threshold import SchemeParams, pseudothreshold_mc, threshold_report, threshold_value

COMMANDS = ("strength", "accuracy", "faultpaths", "truncate", "levelred", "threshold")
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
    ok = np.isfinite(a)
    if not ok.all():
        _fmt_float(a[~ok][0].item())  # raises, naming the first one in row-major order
    row = "%.17g"
    for n in reversed(a.shape[1:]):
        row = "[" + ",".join([row] * n) + "]"
    chunks = (a[i:i + _CHUNK_ROWS] for i in range(0, len(a), _CHUNK_ROWS))
    return "[" + ",".join(
        ",".join([row] * len(c)) % tuple(c.ravel().tolist()) for c in chunks
    ) + "]"


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


@dataclass
class Report:
    command: str
    config: dict
    results: dict
    records: list[dict] = field(default_factory=list)
    seed: int = 0

    def provenance(self) -> dict:
        return {
            "package": "ftlab",
            "version": __version__,
            "seed": self.seed,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }


def emit_report(report: Report, fmt: str) -> bytes:
    """Serialize a report; identical input gives identical bytes."""
    if fmt == "json":
        doc = {
            "command": report.command,
            "config": report.config,
            "provenance": report.provenance(),
            "results": report.results,
        }
        _validate(doc, "report")
        return (json_dumps(doc) + "\n").encode("utf-8")
    if fmt == "csv":
        header = list(report.records[0]) if report.records else []
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for rec in report.records:
            buf.write(",".join(_csv_cell(rec.get(k)) for k in header) + "\n")
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


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
        raise error


def _load_config(path: str, args: argparse.Namespace) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    _validate(config, "config")
    if config.get("command", args.command) != args.command:
        raise ValueError(
            f"config is for command {config['command']!r}, invoked as {args.command!r}"
        )
    config["command"] = args.command
    config.setdefault("params", {})
    if args.seed is not None:
        config["seed"] = args.seed
    config.setdefault("seed", 0)
    out = config.setdefault("output", {})
    if args.out is not None:
        out["path"] = args.out
    if args.format is not None:
        out["format"] = args.format
    out.setdefault("format", "json")
    if args.workers is not None:
        config["workers"] = args.workers
    return config


def _report(command: str, config: dict, results: dict, records: list[dict]) -> Report:
    """Report embedding the resolved config minus workers and output path.

    Those two tune execution and placement, not results; keeping them out
    preserves byte-identity across worker counts and across runs that only
    differ in where the report lands.
    """
    embedded = {k: v for k, v in config.items() if k != "workers"}
    embedded["output"] = {"format": config["output"]["format"]}
    return Report(command, embedded, results, records, seed=config["seed"])


# -- command implementations ---------------------------------------------------


def _ideal_channel_like(noisy: Channel, params: Mapping) -> Channel:
    if "ideal" in params:
        u = gate_from_json(params["ideal"])
        return Channel.unitary(u, noisy.dims, noisy.support)
    return Channel.identity(noisy.dims, noisy.support)


def _cmd_strength(config: dict, workers: int) -> Report:
    params = config["params"]
    ev = params.get("evaluator")
    if ev == "markovian":
        noisy = make_noise_channel(noise_spec_from_json(params["noisy"]))
        eps = strength_markovian(noisy, _ideal_channel_like(noisy, params))
        results = {"evaluator": ev, "strength": eps}
    elif ev == "diamond":
        a = make_noise_channel(noise_spec_from_json(params["a"]))
        b = make_noise_channel(noise_spec_from_json(params["b"]))
        restarts = params.get("restarts", 32)
        if type(restarts) is not int:  # a bool, float or string is refused, not cast
            raise ValueError(f"restarts must be an integer, got {restarts!r}")
        if restarts > RESTARTS_CAP:
            raise ExhaustiveCapError(f"diamond ascent capped at restarts <= {RESTARTS_CAP}")
        lo, hi = diamond_distance(a, b, restarts=restarts, seed=config["seed"])
        results = {"evaluator": ev, "lower": lo, "upper": hi}
    elif ev == "local_hamiltonian":
        terms = hamiltonian_terms_from_json(params["terms"])
        eps = strength_local_hamiltonian(terms, float(params["t0"]))
        results = {"evaluator": ev, "strength": eps}
    elif ev == "long_range":
        terms = hamiltonian_terms_from_json(params["terms"])
        kwargs = {"c": float(params["c"])} if "c" in params else {}
        eps = strength_long_range(terms, float(params["t0"]), **kwargs)
        results = {
            "evaluator": ev,
            "strength": float(eps),
            "within_validity": eps.within_validity,
        }
    elif ev == "gaussian":
        grid = correlation_grid_from_json(params["grid"])
        kwargs = {"c": float(params["c"])} if "c" in params else {}
        results = {"evaluator": ev, "strength": strength_gaussian(grid, **kwargs)}
    elif ev == "unitary_couplings":
        ops = [matrix_from_json(m) for m in params["couplings"]]
        results = {"evaluator": ev, "strength": strength_unitary_couplings(ops)}
    elif ev == "environment":
        env = environment_spec_from_json(params["environment"])
        results = {"evaluator": ev, "strength": environment_strength(env)}
    else:
        raise ValueError(f"unknown strength evaluator {ev!r}")
    return _report("strength", config, results, [dict(results)])


def _cmd_accuracy(config: dict, workers: int) -> Report:
    params = config["params"]
    c = circuit_from_json(params["circuit"])
    variant = params.get("variant")
    if "environment" in params:
        env = environment_spec_from_json(params["environment"])
        delta = accuracy_delta_exact(c, env)
        eps = environment_strength(env)
        variant = variant or "non_markovian"
    else:
        noise = noise_map_from_json(params.get("noise", {}))
        delta = accuracy_delta_exact(c, noise)
        eps = 0.0
        for ch in noise.values():
            ident = Channel.identity(ch.dims, ch.support)
            eps = max(eps, strength_markovian(ch, ident))
        variant = variant or "linear"
    bound = accuracy_bound(c.size, eps, variant)
    results = {
        "delta": delta,
        "eps": eps,
        "locations": c.size,
        "variant": variant,
        "bound": bound,
        "within_bound": bool(delta <= bound + 1e-12),
    }
    return _report("accuracy", config, results, [dict(results)])


def _cmd_faultpaths(config: dict, workers: int) -> Report:
    params = config["params"]
    mode = params.get("mode")
    if mode == "ie_check":
        verdict = verify_ie_identity(int(params["L0"]), int(params["t"]))
        results = {
            "mode": mode,
            "ok": verdict.ok,
            "counterexample": list(verdict.counterexample or ()),
            "detail": verdict.detail,
        }
        rec = {k: results[k] for k in ("mode", "ok", "detail")}
        return _report("faultpaths", config, results, [rec])
    c = circuit_from_json(params["circuit"])
    noise = noise_map_from_json(params.get("noise", {}))
    if mode == "subset":
        if len(set(params["subset"])) > SUBSET_SIZE_CAP:
            raise ExhaustiveCapError(
                f"subset requests capped at r <= {SUBSET_SIZE_CAP}"
            )
        zeta = zeta_subset(
            c, noise, [int(i) for i in params["subset"]],
            complement=params.get("complement", "noisy"),
        )
        results = {
            "mode": mode,
            "subset": sorted(int(i) for i in params["subset"]),
            "complement": params.get("complement", "noisy"),
        }
    elif mode == "earliest":
        zeta = zeta_earliest(c, noise, int(params["r"]))
        results = {"mode": mode, "r": int(params["r"])}
    else:
        raise ValueError(f"unknown faultpaths mode {mode!r}")
    results["trace_norm"] = trace_norm(zeta)
    results["matrix"] = complex_pairs(zeta)
    rec = {k: v for k, v in results.items() if k not in ("matrix", "subset")}
    return _report("faultpaths", config, results, [rec])


def _cmd_truncate(config: dict, workers: int) -> Report:
    params = config["params"]
    graph, t = gadget_graph_from_json(params["graph"])
    if "faults" in params:
        fc = FaultConfig(params["faults"])
    else:
        fc = sample_fault_config(graph, float(params["eps"]), config["seed"])
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
    return _report("truncate", config, results, per_gadget)


def _cmd_levelred(config: dict, workers: int) -> Report:
    params = config["params"]
    levels = int(params["levels"])
    L0, t = int(params["L0"]), int(params["t"])
    eps = float(params["eps"])
    samples = int(params["samples"])
    ests = level_reduce_mc(levels, L0, t, eps, samples, config["seed"], workers=workers)
    exact = iterate_failure_map(levels, L0, t, eps)
    rows = [
        {
            "level": e.level,
            "estimate": e.probability,
            "stderr": e.stderr,
            "trials": e.trials,
            "exact": x,
        }
        for e, x in zip(ests, exact)
    ]
    results = {
        "L0": L0,
        "t": t,
        "eps": eps,
        "samples": samples,
        "levels": rows,
    }
    return _report("levelred", config, results, [dict(r) for r in rows])


def _cmd_threshold(config: dict, workers: int) -> Report:
    params = config["params"]
    scheme = SchemeParams(
        L0=int(params["L0"]),
        t=int(params["t"]),
        xi=float(params.get("xi", math.e)),
    )
    results: dict = {
        "L0": scheme.L0,
        "t": scheme.t,
        "xi": scheme.xi,
        "eps0": threshold_value(scheme),
    }
    records: list[dict] = []
    if all(k in params for k in ("L", "delta0", "eps")):
        rep = threshold_report(
            int(params["L"]), float(params["delta0"]), float(params["eps"]), scheme
        )
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
        sub = params["pseudothreshold"]
        if not isinstance(sub, Mapping):
            raise ValueError("pseudothreshold must be an object")
        crossing, ci = pseudothreshold_mc(
            scheme,
            int(sub.get("samples", 10**5)),
            config["seed"],
            mode=sub.get("mode", "exact"),
        )
        results["pseudothreshold"] = {
            "crossing": crossing,
            "ci_low": ci[0],
            "ci_high": ci[1],
            "mode": sub.get("mode", "exact"),
        }
    return _report("threshold", config, results, records)


_RUNNERS = {
    "strength": _cmd_strength,
    "accuracy": _cmd_accuracy,
    "faultpaths": _cmd_faultpaths,
    "truncate": _cmd_truncate,
    "levelred": _cmd_levelred,
    "threshold": _cmd_threshold,
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
    helps = {
        "strength": "evaluate a noise-strength model",
        "accuracy": "exact output deviation of a noisy circuit vs its bound",
        "faultpaths": "materialize fault-path sums or check counting identities",
        "truncate": "classify gadgets as good/bad after the truncation sweep",
        "levelred": "Monte Carlo level-reduction failure estimates",
        "threshold": "threshold, per-level strengths, required level, overhead",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker pool size (default: machine parallelism)",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config, args)
        workers = config.get("workers") or os.cpu_count() or 1
        report = _RUNNERS[args.command](config, workers)
        payload = emit_report(report, config["output"]["format"])
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
    except (
        ValueError,
        TypeError,
        KeyError,
        OSError,
        jsonschema.ValidationError,
    ) as exc:
        reason = str(exc) if str(exc) else type(exc).__name__
        if isinstance(exc, KeyError):
            reason = f"missing config key: {reason}"
        return _fail(2, reason)
    return 0


if __name__ == "__main__":
    sys.exit(main())
