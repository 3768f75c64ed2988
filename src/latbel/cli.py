"""Command line front end.

Every command is a thin adapter over the library: outputs are the
serialized library results, elements always appear in input-file order, and
re-running a command is deterministic.  Exit codes follow one contract:
0 when the computation succeeds or the checked property holds, 1 when a
property fails (a witness is printed), 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import capacity, duality, evidence, io, lattice as lat, possibilistic, transforms
from .errors import (
    DecompositionNotUnique,
    LatBelError,
    NonPositiveWeight,
    NotABelief,
    NotALattice,
    NotAutodual,
    NotDistributive,
    SelectionFailed,
    SizeLimitExceeded,
    TiesInDistribution,
    TopMassZero,
    TopValueNotOne,
    TotalConflict,
)

# Failures of a checked mathematical property: exit 1.  Anything else
# raised by the library marks unusable input: exit 2.
_PROPERTY_ERRORS = (
    NotALattice,
    NotABelief,
    TopMassZero,
    TotalConflict,
    TiesInDistribution,
    TopValueNotOne,
    SelectionFailed,
    NotDistributive,
    NotAutodual,
    DecompositionNotUnique,
    NonPositiveWeight,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        limits = io.Limits.from_env()
        limits.tolerance = args.tolerance
        if args.limit is not None:
            limits.max_chains = limits.max_families = args.limit
        return args.handler(args, limits)
    except _PROPERTY_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (LatBelError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--tolerance", type=_tolerance, default=capacity.DEFAULT_TOL,
                        metavar="EPS")
    common.add_argument("--limit", type=int, default=None, metavar="N",
                        help="override the caps on maximal chains and k-families built")

    parser = argparse.ArgumentParser(prog="latbel",
                                     description="belief-function calculus on finite lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="structural profile of a lattice file")
    p.add_argument("lattice")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("birkhoff", parents=[common], help="lattice of all downsets of a poset")
    p.add_argument("poset")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_birkhoff)

    p = sub.add_parser("mobius", parents=[common], help="Moebius coefficients of a lattice")
    p.add_argument("lattice")
    p.set_defaults(handler=_cmd_mobius)

    p = sub.add_parser("transform", parents=[common], help="apply a function transform")
    p.add_argument("direction", choices=["mobius", "zeta", "comobius", "inverse-comobius"])
    p.add_argument("--lattice", required=True)
    p.add_argument("function")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("negations", parents=[common], help="enumerate vee-negations")
    p.add_argument("lattice")
    p.add_argument("--all", action="store_true",
                   help="list every negation (otherwise --limit, default 1)")
    p.set_defaults(handler=_cmd_negations)

    p = sub.add_parser("chains", parents=[common], help="all maximal chains")
    p.add_argument("lattice")
    p.set_defaults(handler=_cmd_chains)

    p = sub.add_parser("dot", parents=[common], help="Hasse diagram as DOT text")
    p.add_argument("lattice")
    p.set_defaults(handler=_cmd_dot)

    bel = sub.add_parser("bel", help="belief-function operations")
    bsub = bel.add_subparsers(dest="bel_command", required=True)

    def bel_parser(name, help_text):
        q = bsub.add_parser(name, parents=[common], help=help_text)
        q.add_argument("--lattice", required=True)
        return q

    p = bel_parser("check", "capacity/belief report for a function")
    p.add_argument("function")
    p.add_argument("--max-k", action="store_true",
                   help="also sweep k-monotonicity up to |L|-2")
    p.set_defaults(handler=_cmd_bel_check)

    p = bel_parser("kmono", "k-monotonicity check")
    p.add_argument("k", help="an integer >= 2, or 'total'")
    p.add_argument("function")
    p.set_defaults(handler=_cmd_bel_kmono)

    p = bel_parser("valuation", "k-valuation (equality) check")
    p.add_argument("k", type=int)
    p.add_argument("function")
    p.set_defaults(handler=_cmd_bel_valuation)

    p = bel_parser("conjugate", "conjugate of a function under a negation")
    p.add_argument("function")
    p.add_argument("--negation", required=True)
    p.add_argument("--variant", choices=["vee", "wedge"], default="vee")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bel_conjugate)

    p = bel_parser("combine", "Dempster combination of two mass files")
    p.add_argument("mass1")
    p.add_argument("mass2")
    p.add_argument("--policy", choices=list(evidence.COMBINE_POLICIES), default="raw")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bel_combine)

    p = bel_parser("decompose", "simple-support weights of a belief function")
    p.add_argument("function")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bel_decompose)

    p = bel_parser("recombine", "rebuild the mass behind simple-support weights")
    p.add_argument("weights")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bel_recombine)

    p = bel_parser("necessity", "meet-min identity check")
    p.add_argument("function")
    p.set_defaults(handler=_cmd_bel_min_max, check=possibilistic.check_necessity)

    p = bel_parser("possibility", "join-max identity check")
    p.add_argument("function")
    p.set_defaults(handler=_cmd_bel_min_max, check=possibilistic.check_possibility)

    p = bel_parser("reconstruct", "focal chain from a possibility distribution")
    p.add_argument("--negation", help="negation file; searched for when omitted")
    p.add_argument("--pi", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bel_reconstruct)

    return parser


def _tolerance(text: str) -> float:
    """A finite, nonnegative tolerance: every check compares differences
    with it, and against NaN or infinity those comparisons never fail."""
    try:
        value = float(text)
        capacity._require_tol(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}") from None
    return value


def _emit(doc: dict) -> None:
    print(json.dumps(doc, ensure_ascii=False, indent=2))


def _lattice(args, limits):
    return io.load_lattice(args.lattice, max_elements=limits.max_elements)


def _function(args, limits):
    return io.load_function(args.function, _lattice(args, limits))


def _write_function(args, f) -> None:
    if args.out:
        io.save(args.out, io.function_to_dict(f))


def _print_check(name: str, res) -> int:
    if res.ok:
        print(f"{name}: holds")
        return 0
    print(f"{name}: fails  witness={list(res.witness or ())}  {res.detail}")
    return 1


def _check_json(res) -> dict:
    return {"ok": res.ok, "witness": list(res.witness) if res.witness else None,
            "detail": res.detail}


def _report(args, label: str, res) -> int:
    if args.json:
        _emit({"v": 1, "property": label, **_check_json(res)})
        return 0 if res.ok else 1
    return _print_check(label, res)


def _cmd_check(args, limits) -> int:
    p = io.load_poset(args.lattice, max_elements=limits.max_elements)
    try:
        l = lat.lattice_from_poset(p)
    except NotALattice as exc:
        if args.json:
            _emit({"v": 1, "is_lattice": False, "pair": list(exc.pair), "reason": exc.reason})
        else:
            print("is_lattice: false")
            print(f"  witness: {exc.pair} has {exc.reason}")
        return 1
    prof = lat.profile(l)
    if args.json:
        doc = {"v": 1}
        doc.update(prof.flags())
        doc["witnesses"] = {k: list(v) for k, v in prof.witnesses.items()}
        _emit(doc)
    else:
        for name, value in prof.flags().items():
            line = f"{name}: {str(value).lower()}"
            if not value and name in prof.witnesses:
                line += f"  witness={list(prof.witnesses[name])}"
            print(line)
    return 0


def _cmd_birkhoff(args, limits) -> int:
    p = io.load_poset(args.poset, max_elements=limits.max_elements)
    result = lat.downset_lattice(p, max_elements=limits.max_elements)
    doc = io.poset_to_dict(result.lattice.poset)
    if args.out:
        io.save(args.out, doc)
        print(f"{len(result.lattice)} downsets written to {args.out}")
    else:
        _emit(doc)
    return 0


def _cmd_mobius(args, limits) -> int:
    l = _lattice(args, limits)
    rows = transforms.mobius_function(l)._rows
    names = l.elements
    mu = {x: {names[j]: row.get(j, 0) for j in lat._indices(up)}
          for x, row, up in zip(names, rows, l.poset._up)}
    if args.json:
        _emit({"v": 1, "mu": mu})
    else:
        for x, row in mu.items():
            for y, v in row.items():
                print(f"mu({x}, {y}) = {v}")
    return 0


def _emit_table(args, f, header: str = "", rows=None) -> int:
    """f as JSON, or one tab-separated line per row (None: per element) under the header."""
    if args.json:
        _emit(io.function_to_dict(f))
    else:
        if header:
            print(header)
        for x in f.lattice.elements if rows is None else rows:
            print(f"{x}\t{f[x]!r}")
    _write_function(args, f)
    return 0


def _cmd_transform(args, limits) -> int:
    op = {
        "mobius": transforms.mobius_transform,
        "zeta": transforms.zeta_transform,
        "comobius": transforms.comobius_transform,
        "inverse-comobius": transforms.mass_from_comobius,
    }[args.direction]
    return _emit_table(args, op(_function(args, limits)))


def _cmd_negations(args, limits) -> int:
    l = _lattice(args, limits)
    limit = None if args.all else (args.limit if args.limit is not None else 1)
    found = duality.find_negations(l, limit=limit)
    if args.json:
        _emit({"v": 1, "negations": [dict(n.map) for n in found]})
    else:
        for n in found:
            print("  ".join(f"{x}->{n.map[x]}" for x in l.elements))
    return 0 if found else 1


def _cmd_chains(args, limits) -> int:
    chains = lat.maximal_chains(_lattice(args, limits), max_chains=limits.max_chains)
    if args.json:
        _emit({"v": 1, "chains": [list(c) for c in chains]})
    else:
        for c in chains:
            print(" < ".join(c))
    return 0


def _cmd_dot(args, limits) -> int:
    sys.stdout.write(io.dot_export(_lattice(args, limits)))
    return 0


def _cmd_bel_check(args, limits) -> int:
    f = _function(args, limits)
    tol = limits.tolerance
    cap = capacity.check_capacity(f, tol)
    bel = capacity.check_belief(f, tol)
    nec = possibilistic.check_necessity(f, tol)
    try:
        max_k = capacity._max_k(f, tol, limits.max_families) if args.max_k else None
    except SizeLimitExceeded as exc:
        max_k = None
        print(f"max_k_monotone: not decided, {exc}", file=sys.stderr)
    if args.json:
        doc = {"v": 1, "is_capacity": _check_json(cap), "is_belief": _check_json(bel),
               "is_necessity": _check_json(nec)}
        if args.max_k:
            doc["max_k_monotone"] = max_k
        _emit(doc)
    else:
        _print_check("is_capacity", cap)
        _print_check("is_belief", bel)
        _print_check("is_necessity", nec)
        if args.max_k:
            print(f"max_k_monotone: {max_k}")
    return 0 if bel.ok else 1


def _cmd_bel_kmono(args, limits) -> int:
    f = _function(args, limits)
    if args.k == "total":
        res = capacity.check_total_monotone(f, limits.tolerance, limits.max_families)
        return _report(args, "totally-monotone", res)
    res = capacity.check_k_monotone(f, int(args.k), limits.tolerance, limits.max_families)
    return _report(args, f"{args.k}-monotone", res)


def _cmd_bel_valuation(args, limits) -> int:
    res = capacity.check_k_valuation(_function(args, limits), args.k, limits.tolerance,
                                     limits.max_families)
    return _report(args, f"{args.k}-valuation", res)


def _cmd_bel_conjugate(args, limits) -> int:
    f = _function(args, limits)
    n = io.load_negation(args.negation, f.lattice)
    return _emit_table(args, capacity.conjugate(f, n, args.variant))


def _emit_mass(args, m) -> int:
    return _emit_table(args, m, "focal element\tmass", m.focal_elements())


def _cmd_bel_combine(args, limits) -> int:
    l = _lattice(args, limits)
    m1 = io.load_mass(args.mass1, l, tol=limits.tolerance)
    m2 = io.load_mass(args.mass2, l, tol=limits.tolerance)
    return _emit_mass(args, evidence.combine(m1, m2, args.policy, tol=limits.tolerance))


def _cmd_bel_decompose(args, limits) -> int:
    weights = evidence.decompose(_function(args, limits), tol=limits.tolerance)
    return _emit_table(args, weights, "focus\tweight", weights.weights)


def _cmd_bel_recombine(args, limits) -> int:
    weights = io.load_weights(args.weights, _lattice(args, limits))
    return _emit_mass(args, evidence.recombine(weights))


def _cmd_bel_min_max(args, limits) -> int:
    res = args.check(_function(args, limits), limits.tolerance)
    return _report(args, args.bel_command, res)


def _cmd_bel_reconstruct(args, limits) -> int:
    l = _lattice(args, limits)
    if args.negation:
        n = io.load_negation(args.negation, l)
    else:
        found = duality.find_negations(l, limit=1)
        if not found:
            raise NotAutodual("the lattice admits no negation; supply --negation")
        n = found[0]
    pi = io.load_distribution(args.pi, "pi")
    result = possibilistic.reconstruct_chain(l, n, pi, tol=limits.tolerance)
    if args.json:
        _emit({
            "v": 1,
            "iota": list(result.iota),
            "chain": list(result.chain),
            "mass": {x: result.mass[x] for x in result.chain},
            "steps": [
                {"k": s.k, "x": s.x, "n(x)": s.nx, "eta(n(x))": list(s.eta_nx),
                 "iota": s.iota, "chain": s.chain_element}
                for s in result.steps
            ],
        })
        _write_function(args, result.mass)
        return 0
    print("step\tx\tn(x)\teta(n(x))\tiota\tchain")
    for s in result.steps:
        print(f"{s.k}\t{s.x}\t{s.nx}\t{','.join(s.eta_nx)}\t{s.iota}\t{s.chain_element}")
    print()
    return _emit_table(args, result.mass, "chain element\tmass", result.chain)


if __name__ == "__main__":
    sys.exit(main())
