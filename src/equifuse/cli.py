"""Command-line front end.

Exit codes: 0 = success with all internal checks passing, 1 = verification
failure (witness JSON on stdout) or internal invariant failure, 2 = input
error.  All numeric output is exact integers plus the prime where modular
values appear; reruns are byte-identical.  --jobs is accepted for old scripts
and ignored.  --table is opened before any work, so a bad path exits 2 at once.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import chartab, fusion, mackey, presets
from .errors import (
    EigenbasisFailure,
    EquifuseError,
    InvalidInput,
    InvariantViolation,
)
from .permgrp import Group, Subgroup

_INTERNAL_ERRORS = (InvariantViolation, EigenbasisFailure)


def _open_table(path: str):
    """The --table destination; - is standard output, which stays open."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _emit_json(obj, out) -> None:
    out.write(json.dumps(obj, indent=2) + "\n")


def emit_csv(ring: fusion.FusionRing) -> str:
    """Structure constants as `i,j,k,N` rows in ascending (i, j, k)."""
    lines = ["i,j,k,N"]
    lines.extend(",".join(str(v) for v in row) for row in ring.constant_rows())
    return "\n".join(lines) + "\n"


def _ring_json_dict(ring: fusion.FusionRing) -> dict:
    G = ring.datum.G
    labels = []
    for i, lab in enumerate(ring.labels):
        labels.append(
            {
                "id": i,
                "orbit_rep": list(G.elements[lab.orbit_rep].images),
                "orbit_size": lab.orbit_size,
                "stabilizer_order": lab.stabilizer.order,
                "char_degree": lab.degree,
                "dim": lab.dim,
            }
        )
    return {
        "labels": labels,
        "unit": ring.unit,
        "constants": ring.constant_rows(),
        "checks": ring.checks,
    }


def _chartable_json_dict(G: Group, ctx) -> dict:
    table = chartab.character_table(G, ctx)
    classes = [
        {"rep": list(G.elements[int(r)].images), "size": int(s)}
        for r, s in zip(G.class_reps, G.class_sizes)
    ]
    return {
        "order": G.order,
        "classes": classes,
        "prime": ctx.p,
        "degrees": list(table.degrees),
        "rows_mod_p": [list(row.values) for row in table.rows],
    }


def _parse_subgroup(G: Group, text: str | None) -> Subgroup:
    if text is None:
        return G.full_subgroup()
    gens = presets.parse_generator_list(text, G.degree)
    return G.subgroup(indices=[G.element_index(g) for g in gens])


def _consume_group_spec(tokens, i):
    t = tokens[i]
    if t in ("sym", "alt", "cyclic", "dihedral"):
        if i + 1 >= len(tokens):
            raise InvalidInput(f"preset {t}: needs a size")
        return f"{t}:{tokens[i + 1]}", i + 2
    return t, i + 1


def _family_from_spec(spec: str, prime_override):
    tokens = spec.split(":")
    kind = tokens[0]
    if kind == "char":
        gspec, i = _consume_group_spec(tokens, 1)
        if i != len(tokens):
            raise InvalidInput(f"trailing tokens in family spec {spec!r}")
        G = presets.parse_group_spec(gspec)
        ctx = chartab.make_context([G], prime_override=prime_override)
        return mackey.char_ring_family(G, ctx)
    if kind == "equiv":
        fspec, i = _consume_group_spec(tokens, 1)
        gspec, i = _consume_group_spec(tokens, i)
        action_spec = ":".join(tokens[i:])
        if not action_spec:
            raise InvalidInput("equiv family needs an action")
        F = presets.parse_group_spec(fspec)
        G = presets.parse_group_spec(gspec)
        datum = presets.load_action(action_spec, F, G)
        ctx = chartab.make_context([datum.F, datum.G], prime_override=prime_override)
        return mackey.equivariant_k0_family(datum, ctx)
    raise InvalidInput(f"family spec must start with char: or equiv:, got {spec!r}")


def _cmd_group(args, out) -> int:
    G = presets.parse_group_spec(args.spec)
    data = presets.group_to_json_dict(G)
    data["order"] = G.order
    data["classes"] = [
        {"rep": list(G.elements[int(r)].images), "size": int(s)}
        for r, s in zip(G.class_reps, G.class_sizes)
    ]
    _emit_json(data, out)
    return 0


def _cmd_chartable(args, out) -> int:
    G = presets.parse_group_spec(args.spec)
    ctx = chartab.make_context([G], prime_override=args.prime_override)
    _emit_json(_chartable_json_dict(G, ctx), out)
    if args.verbose:
        table = chartab.character_table(G, ctx)
        lifted = chartab.cyclotomic_lift(table, ctx)
        for row in lifted:
            print("  ".join(f"{cell:>14}" for cell in row), file=sys.stderr)
    return 0


def _emit_ring(ring, args, out) -> None:
    if args.format == "csv":
        out.write(emit_csv(ring))
    else:
        _emit_json(_ring_json_dict(ring), out)


def _cmd_double(args, out) -> int:
    G = presets.parse_group_spec(args.spec)
    datum = presets.load_action("conjugation", G)
    ctx = chartab.make_context([G, G], prime_override=args.prime_override)
    ring = fusion.fusion_ring(datum, G.full_subgroup(), ctx)
    _emit_ring(ring, args, out)
    return 0


def _cmd_fuse(args, out) -> int:
    F = presets.parse_group_spec(args.F) if args.F else None
    G = presets.parse_group_spec(args.G) if args.G else None
    datum = presets.load_action(args.action, F, G)
    ctx = chartab.make_context(
        [datum.F, datum.G], prime_override=args.prime_override
    )
    H = _parse_subgroup(datum.F, args.subgroup)
    ring = fusion.fusion_ring(datum, H, ctx)
    _emit_ring(ring, args, out)
    return 0


def _cmd_verify(args, out) -> int:
    fam = _family_from_spec(args.family, args.prime_override)
    if args.what == "mackey":
        report = mackey.verify_mackey_axioms(fam)
    else:
        report = mackey.verify_green_axioms(fam)
    _emit_json(report.to_json_dict(), out)
    return 0 if report.ok else 1


def _cmd_scenario(args, out) -> int:
    if args.action_verb != "list":
        raise InvalidInput(f"unknown scenario action {args.action_verb!r}")
    _emit_json(presets.scenario_catalog(), out)
    return 0


def _add_common(sub, jobs=False, fmt=False):
    sub.add_argument("--table", default="-", metavar="PATH",
                     help="output path, or - for standard output")
    sub.add_argument("--prime-override", type=int, default=None,
                     help="expert: fixed prime (must satisfy the context invariants)")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1,
                         help="ignored; accepted for compatibility")
    if fmt:
        sub.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equifuse",
        description="Exact character rings, Mackey/Green verification, and "
        "fusion rings of equivariantized graded categories.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("group", help="emit a group as JSON")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(fn=_cmd_group)

    p = subs.add_parser("chartable", help="modular character table")
    p.add_argument("spec")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print a cyclotomic-lifted table to stderr")
    _add_common(p)
    p.set_defaults(fn=_cmd_chartable)

    p = subs.add_parser("double", help="fusion ring of the conjugation double")
    p.add_argument("spec")
    _add_common(p, jobs=True, fmt=True)
    p.set_defaults(fn=_cmd_double)

    p = subs.add_parser("fuse", help="fusion ring of a general coherent datum")
    p.add_argument("--F", default=None, help="acting group spec")
    p.add_argument("--G", default=None, help="graded group spec")
    p.add_argument("--action", required=True,
                   help="action JSON file, or the literal 'conjugation'")
    p.add_argument("--subgroup", default=None, metavar="CYCLES",
                   help="generators of H <= F in cycle notation, e.g. '(0 1)(2 3)'")
    _add_common(p, jobs=True, fmt=True)
    p.set_defaults(fn=_cmd_fuse)

    p = subs.add_parser("verify", help="run an axiom verifier over a lattice")
    p.add_argument("what", choices=("mackey", "green"))
    p.add_argument("--family", required=True,
                   help="char:<group> or equiv:<F>:<G>:<action>")
    _add_common(p)
    p.set_defaults(fn=_cmd_verify)

    p = subs.add_parser("scenario", help="scenario catalog")
    p.add_argument("action_verb", metavar="list")
    _add_common(p)
    p.set_defaults(fn=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with _open_table(args.table) as out:
            return args.fn(args, out)
    except _INTERNAL_ERRORS as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    except (EquifuseError, ValueError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
