"""Named group/scenario constructors and the JSON wire formats for groups
and actions, so every verification target is a one-liner."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .chartab import ModularContext, make_context
from .errors import InvalidInput, UnknownPreset
from .fusion import CoherentDatum
from .permgrp import Group, GroupAction, Perm, build_group, centralizer

_PRESET_RE = re.compile(r"^(sym|alt|cyclic|dihedral):(\d+)$")


@dataclass(frozen=True)
class Scenario:
    """A coherent datum bundled with its modular context."""

    name: str
    datum: CoherentDatum
    ctx: ModularContext
    notes: str


def _quaternion_table():
    # unit quaternions {±1, ±i, ±j, ±k} as (sign, axis) with axis 0 = 1
    axis_mul = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }

    def mul(a, b):
        sa, xa = divmod(a, 4)
        sb, xb = divmod(b, 4)
        s, x = axis_mul[(xa, xb)]
        return ((sa + sb + s) % 2) * 4 + x

    return mul


def group_preset(spec: str) -> Group:
    """Build one of: sym:n / alt:n (n <= 6), cyclic:n, dihedral:n (order 2n),
    klein4, quaternion8.  The quaternion group comes from its multiplication
    table via the regular representation on 8 points."""
    spec = spec.strip()
    if spec == "klein4":
        return build_group(
            [Perm.from_cycles([(0, 1)], 4), Perm.from_cycles([(2, 3)], 4)]
        )
    if spec == "quaternion8":
        mul = _quaternion_table()
        gens = [Perm([mul(g, h) for h in range(8)]) for g in (1, 2)]
        return build_group(gens)
    m = _PRESET_RE.match(spec)
    if not m:
        raise UnknownPreset(f"unknown group preset: {spec!r}")
    kind, n = m.group(1), int(m.group(2))
    if n < 1:
        raise UnknownPreset(f"{kind}:{n} needs n >= 1")
    if kind in ("sym", "alt") and n > 6:
        raise UnknownPreset(f"{kind}:n supports n <= 6 only")
    if kind == "sym":
        if n == 1:
            return build_group([], degree=1)
        gens = [Perm.from_cycles([(0, 1)], n)]
        if n > 2:
            gens.append(Perm.from_cycles([tuple(range(n))], n))
        return build_group(gens)
    if kind == "alt":
        if n <= 2:
            return build_group([], degree=max(n, 1))
        gens = [
            Perm.from_cycles([(i, i + 1, i + 2)], n) for i in range(n - 2)
        ]
        return build_group(gens)
    if kind == "cyclic":
        if n == 1:
            return build_group([], degree=1)
        return build_group([Perm.from_cycles([tuple(range(n))], n)])
    if kind == "dihedral":
        if n == 1:
            return build_group([Perm.from_cycles([(0, 1)], 2)])
        if n == 2:
            return group_preset("klein4")
        rot = Perm.from_cycles([tuple(range(n))], n)
        refl = Perm([(n - i) % n for i in range(n)])
        return build_group([rot, refl])
    raise UnknownPreset(f"unknown group preset: {spec!r}")


def group_to_json_dict(G: Group) -> dict:
    return {
        "degree": G.degree,
        "generators": [list(g.images) for g in G.generators],
    }


def group_from_json_dict(data: dict) -> Group:
    try:
        degree = int(data["degree"])
        gens = [Perm(imgs) for imgs in data["generators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad group JSON: {exc}") from exc
    if degree < 1:
        raise InvalidInput(f"bad group JSON: degree must be at least 1, got {degree}")
    return build_group(gens, degree=degree)


def parse_group_spec(spec: str) -> Group:
    """A preset name, or a path to a JSON file {degree, generators}."""
    try:
        return group_preset(spec)
    except UnknownPreset:
        pass
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UnknownPreset(
            f"{spec!r} is neither a preset nor a readable JSON file"
        ) from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"bad JSON in {spec}: {exc}") from exc
    return group_from_json_dict(data)


def parse_cycles(text: str, degree: int) -> Perm:
    """One permutation in cycle notation, e.g. '(0 1)(2 3)' or '()'."""
    text = text.strip()
    if text in ("()", "", "e"):
        return Perm.identity(degree)
    if not re.fullmatch(r"(\(\s*\d+(?:[\s,]+\d+)*\s*\))+", text):
        raise InvalidInput(f"bad cycle notation: {text!r}")
    cycles = [
        tuple(int(t) for t in re.split(r"[\s,]+", body.strip()))
        for body in re.findall(r"\(([^()]*)\)", text)
    ]
    try:
        return Perm.from_cycles(cycles, degree)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from exc


def parse_generator_list(text: str, degree: int):
    """Comma-separated permutations in cycle notation."""
    parts = re.split(r"\s*,\s*(?=\()", text.strip())
    return [parse_cycles(part, degree) for part in parts if part.strip()]


def load_action(spec: str, F: Group | None = None, G: Group | None = None) -> CoherentDatum:
    """Build a coherent datum from the literal 'conjugation' (actor acting on
    itself) or an action JSON file: {actor, target, images}, with images
    {"<generator index>": [one target index per target element]}, or the
    JSON string "conjugation" or an object with images "conjugation" (the
    actor, by default F, acting on itself, as for the literal).  Any other shape, and a row
    that is not a permutation of the target's indices, raises
    InvalidInput."""
    if spec == "conjugation":
        if F is None:
            raise InvalidInput("conjugation needs a group")
        if G is not None and not np.array_equal(G.images, F.images):
            raise InvalidInput("conjugation requires actor = target")
        return CoherentDatum(F, F, GroupAction.conjugation(F))
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read action file {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"bad JSON in {spec}: {exc}") from exc
    if data == "conjugation":
        data = {"images": "conjugation"}
    if not isinstance(data, dict):
        raise InvalidInput(
            f"action JSON must be an object or \"conjugation\", got {type(data).__name__}"
        )
    if data.get("images") == "conjugation":
        return load_action("conjugation", _group_from_field(data.get("actor"), F), G)
    actor = _group_from_field(data.get("actor"), F)
    target = _group_from_field(data.get("target"), G)
    images = data.get("images")
    if not isinstance(images, dict):
        raise InvalidInput("action JSON needs an 'images' object")
    rows = []
    for i in range(len(actor.generators)):
        row = images.get(str(i))
        if row is None:
            raise InvalidInput(f"action JSON missing images for generator {i}")
        rows.append(row)
    try:
        action = GroupAction.from_generator_rows(actor, target, rows)
    except ValueError as exc:
        raise InvalidInput(f"invalid action: {exc}") from exc
    return CoherentDatum(actor, target, action)


def _group_from_field(field, fallback: Group | None) -> Group:
    if field is None:
        if fallback is None:
            raise InvalidInput("action JSON missing a group and no fallback given")
        return fallback
    if isinstance(field, str):
        return group_preset(field)
    return group_from_json_dict(field)


def drinfeld_double_scenario(G: Group) -> Scenario:
    """F = G acting on itself by conjugation: the Grothendieck-ring shadow of
    the Drinfeld center of the pointed G-graded category."""
    datum = CoherentDatum(G, G, GroupAction.conjugation(G))
    ctx = make_context([G, G])
    return Scenario(
        name=f"double(order {G.order})",
        datum=datum,
        ctx=ctx,
        notes="conjugation action of the grading group on itself",
    )


def classical_scenario(F: Group) -> Scenario:
    """Trivial grading group: the equivariant family collapses to the
    ordinary character-ring family of F."""
    G = build_group([], degree=1)
    action = GroupAction(F, G, np.zeros((F.order, 1), dtype=np.int32))
    ctx = make_context([F, G])
    return Scenario(
        name=f"classical(order {F.order})",
        datum=CoherentDatum(F, G, action),
        ctx=ctx,
        notes="trivial grading group; classical character theory",
    )


SCENARIO_PRESETS = (
    "cyclic:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "klein4",
    "sym:3",
    "dihedral:4",
    "quaternion8",
    "alt:4",
)


def scenario_catalog():
    """Rows for `scenario list`: double scenarios of the preset groups with
    order and expected simple count (sum over classes of the number of
    centralizer irreducibles)."""
    rows = []
    for spec in SCENARIO_PRESETS:
        G = group_preset(spec)
        count = 0
        for rep in G.class_reps:
            count += centralizer(G, int(rep)).group().num_classes
        rows.append(
            {
                "scenario": f"double:{spec}",
                "group_order": G.order,
                "expected_labels": count,
            }
        )
    return rows
