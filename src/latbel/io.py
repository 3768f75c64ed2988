"""File formats and DOT export.

One canonical JSON document per artifact kind, each carrying a format
version field "v": 1.

lattice/poset   {"v": 1, "elements": [...], "covers": [["x", "y"], ...]}
                where ["x", "y"] means y covers x
function/mass   {"v": 1, "values": {"element": number, ...}}
weights         same shape as a function; omitted elements mean weight 1
negation        {"v": 1, "map": {"x": "nx", ...}}
distribution    {"v": 1, "pi": {...}} or {"v": 1, "nu": {...}}

Numbers are emitted with Python's shortest round-trip representation, so
written files are byte-stable across platforms.
"""

from __future__ import annotations

import json
import math

from .errors import FormatError
from .lattice import DEFAULT_MAX_ELEMENTS, DEFAULT_TOL, Lattice, Poset, lattice_from_poset

FORMAT_VERSION = 1


def _load_document(path) -> dict:
    def refuse(name):
        raise FormatError(f"{path}: non-finite number {name} is not allowed")

    def unique(pairs):  # a repeated key would otherwise keep its last value
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise FormatError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text, parse_constant=refuse, object_pairs_hook=unique)
        if "\\u" in text:  # an escape may leave a lone surrogate, which no output can encode
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # also a byte that is not UTF-8, or too many digits
        raise FormatError(f"{path}: {exc}") from exc
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    v = doc.get("v", FORMAT_VERSION)
    if type(v) is not int or v != FORMAT_VERSION:  # not True or 1.0
        raise FormatError(f"{path}: unsupported format version {v!r}")
    return doc


def _field(doc, path, key, kind):
    if key not in doc:
        raise FormatError(f"{path}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise FormatError(f"{path}: field {key!r} has the wrong type")
    return value


def load_poset(path, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Poset:
    doc = _load_document(path)
    elements = _field(doc, path, "elements", list)
    covers = _field(doc, path, "covers", list)
    if not all(isinstance(entry, list) and len(entry) == 2 for entry in covers):
        raise FormatError(f"{path}: each cover must be a two-element list")
    return Poset(elements, covers, max_elements=max_elements)


def load_lattice(path, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Lattice:
    return lattice_from_poset(load_poset(path, max_elements=max_elements))


def _numbers(doc, path, key) -> dict:
    out = {}
    for name, v in _field(doc, path, key, dict).items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise FormatError(f"{path}: value of {name!r} is not a number")
        try:
            out[name] = float(v)
        except OverflowError:  # an integer beyond the float range
            out[name] = math.inf
        if not math.isfinite(out[name]):
            raise FormatError(f"{path}: value of {name!r} is not finite")
    return out


def load_values(path) -> dict:
    return _numbers(_load_document(path), path, "values")


# The loaders below import the layer of the type they build when called, so
# that a command reading only lattices loads none of those layers.

def load_function(path, lattice: Lattice) -> SetFunction:
    from .transforms import SetFunction

    return SetFunction(lattice, load_values(path))


def load_mass(path, lattice: Lattice, *, tol: float = DEFAULT_TOL) -> MassAllocation:
    from .evidence import MassAllocation

    return MassAllocation(lattice, load_values(path), tol=tol)


def load_weights(path, lattice: Lattice) -> SupportWeights:
    from .evidence import SupportWeights

    return SupportWeights(lattice, load_values(path))


def load_negation(path, lattice: Lattice) -> Negation:
    from .duality import negation_from_map

    doc = _load_document(path)
    mapping = _field(doc, path, "map", dict)
    return negation_from_map(lattice, mapping)


def load_distribution(path, key: str) -> dict:
    return _numbers(_load_document(path), path, key)


def poset_to_dict(p: Poset) -> dict:
    return {"v": FORMAT_VERSION, "elements": list(p.elements),
            "covers": [list(c) for c in p.covers]}


def function_to_dict(f) -> dict:
    return {"v": FORMAT_VERSION, "values": {x: v for x, v in f.items()}}


def dumps(doc: dict) -> str:
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def save(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def dot_export(l: Lattice) -> str:
    """Hasse diagram as DOT, drawn bottom-up with one rank per height and
    join-irreducible elements drawn filled."""
    # escaping backslash and quote keeps distinct names distinct DOT IDs
    q = {x: '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"' for x in l.elements}
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=ellipse];"]
    by_height: dict[int, list[str]] = {}
    for i, x in enumerate(l.elements):
        by_height.setdefault(l._h[i], []).append(x)
        if l._jmask >> i & 1:
            lines.append(f"  {q[x]} [style=filled, fillcolor=black, fontcolor=white];")
        else:
            lines.append(f"  {q[x]};")
    for a, b in l.covers:
        lines.append(f"  {q[a]} -> {q[b]};")
    for h in sorted(by_height):
        row = "; ".join(q[x] for x in by_height[h])
        lines.append(f"  {{ rank=same; {row}; }}")
    lines.append("}")
    return "\n".join(lines) + "\n"

