"""Command-line front door.

Subcommands: negativity | sweep | bounds | trace | family-verify.  Output is
CSV (or key=value report lines for `trace`), written to stdout or --output.
Given identical flags and seeds the emitted bytes are identical across runs
at a fixed BLAS thread count (the last digits of both spectrum routes and of
the random unitary product change with it); floats are fixed at 17
significant digits with no locale formatting.  Flag values override an
optional key=value --config file, which overrides built-in defaults.  A
setting counts as given when its value differs from its default, and each
route refuses every given setting it does not read (ROUTE_READS) before any
work.  Every refusal, a malformed flag included, is one ``error:`` line and
exit status 2.  Thread count is controlled only through the BLAS environment variables
(e.g. OMP_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable

import numpy as np

from . import bounds as bounds_mod
from . import ensemble, family, pathsum
from .linalg import Bipartition, load_unitary, num_qubits
from .negativity import negativity_eigen, negativity_singular
from .state import (build_state, estimate_trace, estimator_runs, require_polarization,
                    require_register)


# The settings each route reads besides the flags that name it.
ROUTE_READS = {
    "negativity": {"--family": "n alpha k method", "--random": "n alpha k method seed",
                   "--file": "n alpha k method"},
    "trace": {"--family": "n alpha epsilon p_error seed",
              "--random": "n alpha epsilon p_error seed",
              "--file": "n alpha epsilon p_error seed",
              "--pathsum": "mode exact", "--pathsum --samples": "mode seed"},
    "sweep": {"--nplus1": "split samples seed", "--range": "split samples seed",
              "--nplus1 --all-splits": "samples seed", "--range --all-splits": "samples seed"},
    "bounds": {"--kind s12": "two_n alpha", "--kind s123": "two_n", "--kind asymptote": "two_n"},
}
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _pair(name: str, z: complex) -> list[str]:
    return [f"{name}_re={_fmt(z.real)}", f"{name}_im={_fmt(z.imag)}"]


def _parse_range(text: str, flag: str) -> range:
    """'5..9' -> range(5, 10); '7' -> range(7, 8); ``flag`` names the setting in
    errors.  A range, not a list, so a huge span costs nothing until it is read."""
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"{flag} must be N or LO..HI, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    config = {}
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: line {i}: expected key=value, got {line!r}")
            config[key.strip().replace("-", "_")] = value.strip()
    return config


def _resolve(args: argparse.Namespace, config: dict[str, str],
             defaults: dict, casts: dict | None = None) -> dict:
    """Effective settings: explicit flag > config file entry > default.

    ``casts`` supplies the type for keys whose default is None.
    """
    out = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in config:
            raw = config[key]
            caster = (casts or {}).get(key, type(default) if default is not None else str)
            if caster is bool and raw.lower() not in _BOOLEANS:
                raise ValueError(f"config key {key} takes 1/0, true/false or yes/no, got {raw!r}")
            out[key] = _BOOLEANS[raw.lower()] if caster is bool else caster(raw)
        else:
            out[key] = default
    return out


def _refuse_unread(command: str, route: str, cfg: dict, defaults: dict) -> None:
    """Refuse, in one line, every given setting outside the flags naming ``route``
    and its ROUTE_READS entry (the rule in the module docstring)."""
    reads = {flag[2:].replace("-", "_") for flag in route.split() if flag.startswith("--")}
    reads.update(ROUTE_READS[command][route].split())
    unread = [f"--{key.replace('_', '-')}" for key, default in defaults.items()
              if key not in reads and cfg[key] != default]
    if unread:
        raise ValueError(f"{route} does not read {', '.join(unread)}")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _unitary_source(command: str, cfg: dict,
                    defaults: dict) -> tuple[int, Callable[[], np.ndarray]]:
    """Total qubit count, and a builder of U, from --family/--random/--file settings.

    Unread settings and the register size are checked, and a --file is read for
    its count, so the caller can check its own settings before U is built.
    """
    sources = [s for s in ("family", "random", "file") if cfg.get(s)]
    if len(sources) != 1:
        raise ValueError("choose exactly one of --family, --random, --file")
    source = sources[0]
    _refuse_unread(command, f"--{source}", cfg, defaults)
    if source == "file":
        u = load_unitary(cfg["file"])
        n = num_qubits(u)
        if cfg.get("n") is not None and cfg["n"] != n + 1:
            raise ValueError(f"--n {cfg['n']} does not match file dimension 2**{n}")
        return n + 1, lambda: u
    if cfg.get("n") is None:
        raise ValueError(f"--{source} requires --n")
    n_plus_1 = cfg["n"]
    if source == "family" and n_plus_1 < 3:
        raise ValueError(f"--family needs --n >= 3, got {n_plus_1}")
    require_register(n_plus_1)
    n = n_plus_1 - 1
    if source == "family":
        return n_plus_1, lambda: family.build_family(n)
    params = ensemble.RandomCircuitParams(n=n, seed=cfg["seed"])
    return n_plus_1, lambda: ensemble.pseudo_random_unitary(params)


def cmd_negativity(args: argparse.Namespace, config: dict[str, str]) -> str:
    defaults = {"family": False, "random": False, "file": None, "n": None,
                "alpha": 1.0, "k": 1, "seed": 0, "method": "singular"}
    cfg = _resolve(args, config, defaults, casts={"n": int})
    routes = {"eigen": negativity_eigen, "singular": negativity_singular}
    if cfg["method"] not in routes:
        raise ValueError(f"method must be eigen or singular, got {cfg['method']!r}")
    n_plus_1, build_u = _unitary_source("negativity", cfg, defaults)
    require_polarization(cfg["alpha"])
    part = Bipartition.trailing(n_plus_1, cfg["k"])
    res = routes[cfg["method"]](build_state(build_u(), cfg["alpha"]), part)
    rows = ["n_plus_1,k,alpha,m_value,n_value,method",
            f"{n_plus_1},{cfg['k']},{_fmt(cfg['alpha'])},{_fmt(res.m_value)},"
            f"{_fmt(res.n_value)},{res.method}"]
    return "\n".join(rows) + "\n"


def cmd_sweep(args: argparse.Namespace, config: dict[str, str]) -> str:
    defaults = {"range": None, "nplus1": None, "split": "half", "all_splits": False,
                "samples": None, "seed": 0}
    cfg = _resolve(args, config, defaults, casts={"nplus1": int, "samples": int})
    if cfg["nplus1"] is None and not cfg["range"]:
        raise ValueError("sweep needs --range or --nplus1")
    route = "--nplus1" if cfg["nplus1"] is not None else "--range"
    _refuse_unread("sweep", route + " --all-splits" * cfg["all_splits"], cfg, defaults)
    sizes = ([cfg["nplus1"]] if cfg["nplus1"] is not None
             else _parse_range(cfg["range"], "--range"))
    split = "all" if cfg["all_splits"] else cfg["split"]
    if split not in ("half", "all"):
        try:
            split = int(split)
        except ValueError:
            raise ValueError(f"--split must be half, all or an integer k, got {split!r}") from None
    stats = ensemble.negativity_sweep(sizes, split=split, samples=cfg["samples"],
                                      seed=cfg["seed"])
    return ensemble.sweep_csv(stats)


def cmd_bounds(args: argparse.Namespace, config: dict[str, str]) -> str:
    defaults = {"kind": "s12", "alpha": 1.0, "two_n": None}
    cfg = _resolve(args, config, defaults)  # two_n stays a string ("8" or "8..78")
    if not cfg["two_n"]:
        raise ValueError("bounds needs --two-n")
    if cfg["kind"] not in ("s12", "s123", "asymptote"):
        raise ValueError(f"kind must be s12, s123, or asymptote, got {cfg['kind']!r}")
    _refuse_unread("bounds", f"--kind {cfg['kind']}", cfg, defaults)
    values = _parse_range(cfg["two_n"], "--two-n")
    if len(values) > 1:
        values = [v for v in values if v % 2 == 0]  # a 2N range steps by 2
    results = []
    for two_n in values:
        if two_n % 2 or two_n < 4:
            raise ValueError(f"--two-n values must be even and >= 4, got {two_n}")
        big_n = two_n // 2
        if cfg["kind"] == "s12":
            results.extend(bounds_mod.bound_s12(big_n, cfg["alpha"]))
        elif cfg["kind"] == "s123":
            results.append(bounds_mod.bound_s123(big_n))
        else:
            results.append(bounds_mod.BoundResult(
                two_n, 1.0, bounds_mod.bound_s123_asymptotic(big_n), "s123_asymptotic"))
    return bounds_mod.bounds_csv(results)


def cmd_trace(args: argparse.Namespace, config: dict[str, str]) -> str:
    defaults = {"family": False, "random": False, "file": None, "n": None,
                "alpha": 1.0, "epsilon": 0.05, "p_error": 0.01, "seed": 0,
                "pathsum": None, "mode": "toffoli", "exact": False, "samples": None}
    cfg = _resolve(args, config, defaults, casts={"n": int, "samples": int})
    if cfg["pathsum"]:
        sampled = cfg["samples"] is not None
        _refuse_unread("trace", "--pathsum --samples" if sampled else "--pathsum", cfg, defaults)
        circuit = pathsum.load_circuit(cfg["pathsum"])
        prepared = pathsum.prepare_circuit(circuit, cfg["mode"])
        poly = pathsum.compile_circuit(prepared)
        lines = [f"qubits={circuit.n}", f"mode={cfg['mode']}", f"path_bits={poly.n_path_bits}"]
        if not sampled:
            lines += _pair("trace", pathsum.exact_trace_enumeration(poly))
            lines += _pair("counting", pathsum.trace_by_counting(poly))
            if circuit.n <= pathsum.DENSE_TRACE_MAX_QUBITS:
                lines += _pair("dense", pathsum.dense_trace(circuit))
        else:
            est, stderr = pathsum.sampled_trace(poly, cfg["samples"], cfg["seed"])
            lines += [f"samples={cfg['samples']}", f"seed={cfg['seed']}",
                      *_pair("normalized_estimate", est), f"stderr={_fmt(stderr)}"]
        return "\n".join(lines) + "\n"
    n_plus_1, build_u = _unitary_source("trace", cfg, defaults)
    estimator_runs(cfg["alpha"], cfg["epsilon"], cfg["p_error"])
    tau = build_state(build_u(), cfg["alpha"]).tau  # the one check of U, and its one trace
    result = estimate_trace(tau, cfg["alpha"], cfg["epsilon"], cfg["p_error"], cfg["seed"])
    lines = [f"n_plus_1={n_plus_1}", f"alpha={_fmt(cfg['alpha'])}",
             f"epsilon={_fmt(cfg['epsilon'])}", f"p_error={_fmt(cfg['p_error'])}",
             f"seed={cfg['seed']}", f"runs_used={result.runs_used}",
             *_pair("estimate", result.estimate), *_pair("true", tau),
             f"abs_error={_fmt(abs(result.estimate - tau))}"]
    return "\n".join(lines) + "\n"


def cmd_family_verify(args: argparse.Namespace, config: dict[str, str]) -> str:
    defaults = {"n": 4}
    cfg = _resolve(args, config, defaults)
    n = cfg["n"]
    circuit = family.circuit_family(n)
    product = pathsum.circuit_unitary(circuit)  # refuses n above the dense cap
    direct = family.build_family(n)
    defect = float(np.max(np.abs(product - direct)))
    lines = [f"n={n}", f"gates={len(circuit.gates)}", f"max_abs_difference={_fmt(defect)}",
             f"verified={'true' if defect <= 1e-12 else 'false'}"]
    if defect > 1e-12:
        raise ValueError(f"family circuit mismatch: max difference {defect:.3e}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """Raises its errors, so ``main`` prints each on one ``error:`` line."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dqc1",
        description="One-clean-qubit circuit simulation, negativity, bounds, and path sums")
    parser.add_argument("--config", help="key=value settings file (flags take precedence)")
    parser.add_argument("--output", help="write results to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source_flags(p):
        p.add_argument("--family", action="store_const", const=True,
                       help="use the block-family unitary")
        p.add_argument("--random", action="store_const", const=True,
                       help="use a seeded pseudo-random unitary")
        p.add_argument("--file", help="load the unitary from this file")
        p.add_argument("--n", type=int, help="total qubit count n+1")
        p.add_argument("--alpha", type=float, help="special-qubit polarization (default 1)")
        p.add_argument("--seed", type=int, help="random seed (default 0)")

    p = sub.add_parser("negativity", help="negativity of one output state")
    add_source_flags(p)
    p.add_argument("--k", type=int, help="trailing split size (default 1)")
    p.add_argument("--method", choices=("eigen", "singular"),
                   help="singular: SVD of the N x N transposed U (default); "
                        "eigen: spectrum of the 2N x 2N transposed rho (cross-check)")
    p.set_defaults(func=cmd_negativity)

    p = sub.add_parser("sweep", help="negativity statistics over random unitaries")
    p.add_argument("--range", help="n+1 range, e.g. 5..9")
    p.add_argument("--nplus1", type=int, help="single n+1 value")
    p.add_argument("--split", help="half | all | k")
    p.add_argument("--all-splits", dest="all_splits", action="store_const", const=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="trace-power bounds on the negativity")
    p.add_argument("--kind", choices=("s12", "s123", "asymptote"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--two-n", dest="two_n", help="spectrum size 2N or range, e.g. 8..78")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("trace", help="trace estimation protocol or path-sum evaluation")
    add_source_flags(p)
    p.add_argument("--epsilon", type=float, help="target accuracy (default 0.05)")
    p.add_argument("--p-error", dest="p_error", type=float,
                   help="target failure probability (default 0.01)")
    p.add_argument("--pathsum", help="evaluate the trace of this circuit file instead")
    p.add_argument("--mode", choices=("toffoli", "t_gate"),
                   help="gate set the --pathsum circuit must use (default toffoli)")
    p.add_argument("--exact", action="store_const", const=True)
    p.add_argument("--samples", type=int, help="path samples (pathsum mode)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("family-verify", help="check the family circuit against the matrix")
    p.add_argument("--n", type=int, help="family size n (default 4)")
    p.set_defaults(func=cmd_family_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: building one costs
    about a millisecond, mostly a terminal-size query per argument."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = _load_config(args.config)
        text = args.func(args, config)
        _emit(text, args.output)
    except Exception as exc:  # one-line machine-parsable error contract
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
