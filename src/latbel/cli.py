"""Command line front end.

Every command is a thin adapter over the library: outputs are the
serialized library results, elements always appear in input-file order, and
re-running a command is deterministic.  Exit codes follow one contract:
0 when the computation succeeds or the checked property holds, 1 when a
property fails (a witness is printed, or the error is a ``PropertyFailure``),
2 on malformed input (any other error).  Each command imports the layers
it runs when it runs, so a call loads no other.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import io, lattice as lat
from .errors import (FormatError, LatBelError, NotALattice, NotAutodual, PropertyFailure,
                     SizeLimitExceeded)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cap = os.environ.get("LATBEL_MAX_ELEMENTS")
        try:
            args.max_elements = lat.DEFAULT_MAX_ELEMENTS if cap is None else int(cap)
        except ValueError:
            raise FormatError(f"LATBEL_MAX_ELEMENTS must be an integer, got {cap!r}") from None
        args.max_chains = lat.DEFAULT_MAX_CHAINS if args.limit is None else args.limit
        args.max_families = lat.DEFAULT_MAX_FAMILIES if args.limit is None else args.limit
        return args.handler(args)
    except (LatBelError, OSError, UnicodeEncodeError) as exc:  # or stdout cannot encode a name
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PropertyFailure) else 2


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--tolerance", type=_tolerance, default=lat.DEFAULT_TOL,
                        metavar="EPS")
    # at least 1: a cap of 0 refuses all work, and the negation search finds that many
    common.add_argument("--limit", type=_integer(1), default=None, metavar="N",
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
    p.add_argument("k", type=_integer(2, "total"), help="an integer >= 2, or 'total'")
    p.add_argument("function")
    p.set_defaults(handler=_cmd_bel_kmono)

    p = bel_parser("valuation", "k-valuation (equality) check")
    p.add_argument("k", type=_integer(2), help="an integer >= 2")
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
    p.add_argument("--policy", choices=list(lat.COMBINE_POLICIES), default="raw")
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
    p.set_defaults(handler=_cmd_bel_min_max)

    p = bel_parser("possibility", "join-max identity check")
    p.add_argument("function")
    p.set_defaults(handler=_cmd_bel_min_max)

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
        lat._require_tol(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}") from None
    return value


def _integer(low: int, *words: str):
    """An argument type taking an integer of at least ``low`` or one of ``words``."""
    def parse(text: str):
        if text in words:
            return text
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        wanted = " or ".join([f"an integer >= {low}", *map(repr, words)])
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")

    return parse


def _emit(doc: dict) -> None:
    sys.stdout.write(io.dumps(doc))


_FLAT = json.JSONEncoder(ensure_ascii=False, separators=(",\n      ", ": ")).encode


def _emit_entries(args, key: str, entries, line, brackets: str = "[]") -> bool:
    """Print each entry as it comes: ``line(entry)``, or with --json what
    ``_emit({"v": 1, key: [...]})`` prints, but nothing before the first
    entry.  Each is a flat, non-empty list or dict; with ``brackets`` "{}",
    a (name, dict) pair, one member of an object.  Returns whether any came."""
    head, found = f'{{\n  "v": 1,\n  "{key}": {brackets[0]}', False
    for entry in entries:
        if not args.json:
            print(line(entry))
        else:  # a flat entry is indent=2's layout once its brackets go on their own lines
            name, entry = (_FLAT(entry[0]) + ": ", entry[1]) if brackets == "{}" else ("", entry)
            text = _FLAT(entry)
            sys.stdout.write(f"{',' if found else head}\n    {name}{text[0]}\n"
                             f"      {text[1:-1]}\n    {text[-1]}")
        found = True
    if args.json:
        sys.stdout.write(("\n  " if found else head) + brackets[1] + "\n}\n")
    return found


def _lattice(args):
    return io.load_lattice(args.lattice, max_elements=args.max_elements)


def _function(args):
    return io.load_function(args.function, _lattice(args))


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


def _cmd_check(args) -> int:
    p = io.load_poset(args.lattice, max_elements=args.max_elements)
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


def _cmd_birkhoff(args) -> int:
    p = io.load_poset(args.poset, max_elements=args.max_elements)
    result = lat.downset_lattice(p, max_elements=args.max_elements)
    doc = io.poset_to_dict(result.lattice)
    if args.out:
        io.save(args.out, doc)
        print(f"{len(result.lattice)} downsets written to {args.out}")
    else:
        _emit(doc)
    return 0


def _cmd_mobius(args) -> int:
    from . import transforms
    l = _lattice(args)
    names = l.elements
    rows = ((x, {names[j]: row.get(j, 0) for j in lat._indices(up)})
            for x, row, up in zip(names, transforms._crosscut_rows(l), l._up))
    _emit_entries(args, "mu", rows, lambda r: "\n".join(
        f"mu({r[0]}, {y}) = {v}" for y, v in r[1].items()), brackets="{}")
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


def _cmd_transform(args) -> int:
    from . import transforms
    op = {
        "mobius": transforms.mobius_transform,
        "zeta": transforms.zeta_transform,
        "comobius": transforms.comobius_transform,
        "inverse-comobius": transforms.mass_from_comobius,
    }[args.direction]
    return _emit_table(args, op(_function(args)))


def _cmd_negations(args) -> int:
    from . import duality
    limit = None if args.all else args.limit or 1
    maps = (n.map for n in itertools.islice(duality._negations(_lattice(args)), limit))
    found = _emit_entries(args, "negations", maps,
                          lambda m: "  ".join(f"{x}->{y}" for x, y in m.items()))
    return 0 if found else 1


def _cmd_chains(args) -> int:
    chains = lat._chains(_lattice(args), args.max_chains)
    _emit_entries(args, "chains", chains, " < ".join)
    return 0


def _cmd_dot(args) -> int:
    sys.stdout.write(io.dot_export(_lattice(args)))
    return 0


def _cmd_bel_check(args) -> int:
    from . import capacity, possibilistic
    f = _function(args)
    tol = args.tolerance
    cap = capacity.check_capacity(f, tol)
    bel = capacity.check_belief(f, tol)
    nec = possibilistic.check_necessity(f, tol)
    try:
        max_k = capacity._max_k(f, tol, args.max_families) if args.max_k else None
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


def _cmd_bel_kmono(args) -> int:
    from . import capacity
    f, rest = _function(args), (args.tolerance, args.max_families)
    if args.k == "total":
        return _report(args, "totally-monotone", capacity.check_total_monotone(f, *rest))
    return _report(args, f"{args.k}-monotone", capacity.check_k_monotone(f, args.k, *rest))


def _cmd_bel_valuation(args) -> int:
    from . import capacity
    res = capacity.check_k_valuation(_function(args), args.k, args.tolerance,
                                     args.max_families)
    return _report(args, f"{args.k}-valuation", res)


def _cmd_bel_conjugate(args) -> int:
    from . import capacity
    f = _function(args)
    n = io.load_negation(args.negation, f.lattice)
    return _emit_table(args, capacity.conjugate(f, n, args.variant))


def _emit_mass(args, m) -> int:
    return _emit_table(args, m, "focal element\tmass", m.focal_elements())


def _cmd_bel_combine(args) -> int:
    from . import evidence
    l = _lattice(args)
    m1 = io.load_mass(args.mass1, l, tol=args.tolerance)
    m2 = io.load_mass(args.mass2, l, tol=args.tolerance)
    return _emit_mass(args, evidence.combine(m1, m2, args.policy, tol=args.tolerance))


def _cmd_bel_decompose(args) -> int:
    from . import evidence
    weights = evidence.decompose(_function(args), tol=args.tolerance)
    return _emit_table(args, weights, "focus\tweight", weights.weights)


def _cmd_bel_recombine(args) -> int:
    from . import evidence
    weights = io.load_weights(args.weights, _lattice(args))
    return _emit_mass(args, evidence.recombine(weights))


def _cmd_bel_min_max(args) -> int:
    from . import possibilistic

    check = getattr(possibilistic, f"check_{args.bel_command}")  # necessity or possibility
    res = check(_function(args), args.tolerance)
    return _report(args, args.bel_command, res)


def _cmd_bel_reconstruct(args) -> int:
    from . import duality, possibilistic
    l = _lattice(args)
    if args.negation:
        n = io.load_negation(args.negation, l)
    else:
        n = next(duality._negations(l), None)
        if n is None:
            raise NotAutodual("the lattice admits no negation; supply --negation")
    pi = io.load_distribution(args.pi, "pi")
    result = possibilistic.reconstruct_chain(l, n, pi, tol=args.tolerance)
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
