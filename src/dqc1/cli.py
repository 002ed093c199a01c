"""Command-line front door.

Subcommands: negativity | sweep | bounds | trace | family-verify.  Output is
CSV (or key=value report lines for `trace`), written to stdout or --output.
Given identical flags and seeds the emitted bytes are identical across runs
at a fixed BLAS thread count (the last digits of both spectrum routes and of
the random unitary product change with it); floats are fixed at 17
significant digits with no locale formatting.  Flag
values override an optional key=value --config file, which overrides built-in
defaults.  Thread count is controlled only through the BLAS environment
variables (e.g. OMP_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import bounds as bounds_mod
from . import ensemble, family, pathsum
from .linalg import Bipartition, load_unitary, num_qubits
from .negativity import negativity_eigen, negativity_singular
from .state import build_state, estimate_trace, require_register


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_range(text: str) -> list[int]:
    """'5..9' -> [5..9]; '7' -> [7]."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


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
            out[key] = raw if caster is str else (raw.lower() in ("1", "true", "yes")
                                                  if caster is bool else caster(raw))
        else:
            out[key] = default
    return out


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_unitary(cfg: dict) -> tuple[np.ndarray, int]:
    """Unitary and total qubit count from --family/--random/--file settings.

    The register cap is checked from --n before a family or random U is built.
    """
    sources = [s for s in ("family", "random", "file") if cfg.get(s)]
    if len(sources) != 1:
        raise ValueError("choose exactly one of --family, --random, --file")
    source = sources[0]
    if source == "file":
        u = load_unitary(cfg["file"])
        n = num_qubits(u)
        if cfg.get("n") is not None and cfg["n"] != n + 1:
            raise ValueError(f"--n {cfg['n']} does not match file dimension 2**{n}")
        return u, n + 1
    if cfg.get("n") is None:
        raise ValueError(f"--{source} requires --n")
    n_plus_1 = cfg["n"]
    require_register(n_plus_1)
    n = n_plus_1 - 1
    if source == "family":
        return family.build_family(n), n_plus_1
    params = ensemble.RandomCircuitParams(n=n, seed=cfg["seed"])
    return ensemble.pseudo_random_unitary(params), n_plus_1


def cmd_negativity(args: argparse.Namespace, config: dict[str, str]) -> str:
    defaults = {"family": False, "random": False, "file": None, "n": None,
                "alpha": 1.0, "k": 1, "seed": 0, "method": "singular"}
    cfg = _resolve(args, config, defaults, casts={"n": int})
    routes = {"eigen": negativity_eigen, "singular": negativity_singular}
    if cfg["method"] not in routes:
        raise ValueError(f"method must be eigen or singular, got {cfg['method']!r}")
    u, n_plus_1 = _resolve_unitary(cfg)
    state = build_state(u, cfg["alpha"])
    part = Bipartition.trailing(n_plus_1, cfg["k"])
    res = routes[cfg["method"]](state, part)
    rows = ["n_plus_1,k,alpha,m_value,n_value,method",
            f"{n_plus_1},{cfg['k']},{_fmt(cfg['alpha'])},{_fmt(res.m_value)},"
            f"{_fmt(res.n_value)},{res.method}"]
    return "\n".join(rows) + "\n"


def cmd_sweep(args: argparse.Namespace, config: dict[str, str]) -> str:
    defaults = {"range": None, "nplus1": None, "split": "half", "all_splits": False,
                "samples": None, "seed": 0}
    cfg = _resolve(args, config, defaults, casts={"nplus1": int, "samples": int})
    if cfg["nplus1"] is not None:
        sizes = [cfg["nplus1"]]
    elif cfg["range"]:
        sizes = _parse_range(cfg["range"])
    else:
        raise ValueError("sweep needs --range or --nplus1")
    if cfg["all_splits"] and cfg["split"] not in ("half", "all"):
        raise ValueError(f"--all-splits conflicts with --split {cfg['split']}")
    split = "all" if cfg["all_splits"] else cfg["split"]
    if split not in ("half", "all"):
        split = int(split)
    stats = ensemble.negativity_sweep(sizes, split=split, samples=cfg["samples"],
                                      seed=cfg["seed"])
    return ensemble.sweep_csv(stats)


def cmd_bounds(args: argparse.Namespace, config: dict[str, str]) -> str:
    defaults = {"kind": "s12", "alpha": 1.0, "two_n": None}
    cfg = _resolve(args, config, defaults)  # two_n stays a string ("8" or "8..78")
    if not cfg["two_n"]:
        raise ValueError("bounds needs --two-n")
    if cfg["kind"] in ("s123", "asymptote") and cfg["alpha"] != 1:
        raise ValueError(f"--kind {cfg['kind']} holds only at alpha = 1, got {cfg['alpha']!r}")
    values = _parse_range(cfg["two_n"])
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
        elif cfg["kind"] == "asymptote":
            results.append(bounds_mod.BoundResult(
                two_n, 1.0, bounds_mod.bound_s123_asymptotic(big_n), "s123_asymptotic"))
        else:
            raise ValueError(f"kind must be s12, s123, or asymptote, got {cfg['kind']!r}")
    return bounds_mod.bounds_csv(results)


def cmd_trace(args: argparse.Namespace, config: dict[str, str]) -> str:
    defaults = {"family": False, "random": False, "file": None, "n": None,
                "alpha": 1.0, "epsilon": 0.05, "p_error": 0.01, "seed": 0,
                "pathsum": None, "mode": "toffoli", "exact": False, "samples": None}
    cfg = _resolve(args, config, defaults, casts={"n": int, "samples": int})
    lines = []
    if cfg["pathsum"]:
        unitary_flags = [f"--{key}" for key in ("family", "random", "file", "n")
                         if cfg[key] != defaults[key]]
        if unitary_flags:
            raise ValueError(f"--pathsum conflicts with {', '.join(unitary_flags)}")
        if cfg["exact"] and cfg["samples"] is not None:
            raise ValueError("--exact conflicts with --samples")
        circuit = pathsum.load_circuit(cfg["pathsum"])
        prepared = pathsum.prepare_circuit(circuit, cfg["mode"])
        poly = pathsum.compile_circuit(prepared)
        lines.append(f"qubits={circuit.n}")
        lines.append(f"mode={cfg['mode']}")
        lines.append(f"path_bits={poly.n_path_bits}")
        if cfg["samples"] is None:
            exact = pathsum.exact_trace_enumeration(poly)
            counted = pathsum.trace_by_counting(poly)
            lines.append(f"trace_re={_fmt(exact.real)}")
            lines.append(f"trace_im={_fmt(exact.imag)}")
            lines.append(f"counting_re={_fmt(counted.real)}")
            lines.append(f"counting_im={_fmt(counted.imag)}")
            if circuit.n <= pathsum.DENSE_TRACE_MAX_QUBITS:
                dense = pathsum.dense_trace(circuit)
                lines.append(f"dense_re={_fmt(dense.real)}")
                lines.append(f"dense_im={_fmt(dense.imag)}")
        else:
            est, stderr = pathsum.sampled_trace(poly, cfg["samples"], cfg["seed"])
            lines.append(f"samples={cfg['samples']}")
            lines.append(f"seed={cfg['seed']}")
            lines.append(f"normalized_estimate_re={_fmt(est.real)}")
            lines.append(f"normalized_estimate_im={_fmt(est.imag)}")
            lines.append(f"stderr={_fmt(stderr)}")
        return "\n".join(lines) + "\n"
    u, n_plus_1 = _resolve_unitary(cfg)
    result = estimate_trace(u, cfg["alpha"], cfg["epsilon"], cfg["p_error"], cfg["seed"])
    true = complex(np.trace(u)) / u.shape[0]
    lines += [f"n_plus_1={n_plus_1}",
              f"alpha={_fmt(cfg['alpha'])}",
              f"epsilon={_fmt(cfg['epsilon'])}",
              f"p_error={_fmt(cfg['p_error'])}",
              f"seed={cfg['seed']}",
              f"runs_used={result.runs_used}",
              f"estimate_re={_fmt(result.estimate.real)}",
              f"estimate_im={_fmt(result.estimate.imag)}",
              f"true_re={_fmt(true.real)}",
              f"true_im={_fmt(true.imag)}",
              f"abs_error={_fmt(abs(result.estimate - true))}"]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        text = args.func(args, config)
        _emit(text, args.output)
    except Exception as exc:  # one-line machine-parsable error contract
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
