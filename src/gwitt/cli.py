"""Command-line surface.

Vector literals for Witt commands are ordered from the top class [G] down
to the trivial class, matching the classical Witt-coordinate convention;
Burnside coefficient and mark vectors are ordered the other way, following
the subconjugacy poset (trivial class first).  Table output labels every
class, so the orientation is always visible.

Exit codes: 0 success, 1 verification counterexample, 2 usage or parse
error, 3 integrality failure.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from . import dsl
from .bispans import (
    bispan_equivalent,
    canonical_factorization,
    fiber_polynomials,
    is_simple,
    recompose,
)
from .burnside import BurnsideElement, burnside_mul, marks, table_of_marks
from .errors import DslSyntaxError, GwittError, IntegralityError
from .groups import Group, subconjugacy_poset
from .gsets import orbit_decompose
from .intpoly import Poly
from .tambara import (
    BurnsideOverInstance,
    InvariantRingInstance,
    check_tambara_axioms,
)
from .witt import (
    GhostVector,
    WittVector,
    ghost,
    teichmuller_tau,
    unghost,
    verify_dress_siebeneicher_iso,
    verify_ghost_factorization,
    verify_injectivity,
    verify_ring_axioms,
    witt_add,
    witt_mul,
    witt_neg,
)

SCHEMA = 1


class _Output:
    def __init__(self, stream):
        self.stream = stream

    def line(self, text=""):
        self.stream.write(text + "\n")

    def json(self, payload: dict):
        payload = {"schema": SCHEMA, **payload}
        self.stream.write(json.dumps(payload, sort_keys=True) + "\n")


def _group_from_arg(text: str) -> Group:
    return dsl.build_group(dsl.parse_group(text))


def _coeffs_from_arg(text: str, group: Group) -> tuple[int, ...]:
    poset = subconjugacy_poset(group)
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    try:
        coeffs = tuple(int(p) for p in parts)
    except ValueError:
        raise GwittError(f"coefficients must be integers: {text!r}") from None
    if len(coeffs) != len(poset):
        raise GwittError(
            f"expected {len(poset)} coefficients in poset order "
            f"{','.join(poset.labels())}, got {len(coeffs)}"
        )
    return coeffs


def _witt_from_arg(text: str, group: Group, symbolic: bool) -> WittVector:
    entries = dsl.build_vector(dsl.parse_vector(text))
    poset = subconjugacy_poset(group)
    if len(entries) != len(poset):
        raise GwittError(
            f"expected {len(poset)} components (top class first), got {len(entries)}"
        )
    if not symbolic:
        bad = [str(e) for e in entries if not e.is_constant()]
        if bad:
            raise GwittError(
                f"symbolic components {bad} need --symbolic"
            )
        comps = tuple(e.constant_value() for e in reversed(entries))
    else:
        comps = tuple(
            e.constant_value() if e.is_constant() else e
            for e in reversed(entries)
        )
    return WittVector(group, comps)


def _witt_tuple_str(group: Group, comps) -> str:
    # descending class order for display: top class first
    return "(" + ", ".join(str(Poly.coerce(c)) for c in reversed(comps)) + ")"


def _witt_components_json(group: Group, comps) -> dict:
    poset = subconjugacy_poset(group)
    return {poset.label(i): str(Poly.coerce(c)) for i, c in enumerate(comps)}


def _print_class_header(out: _Output, group: Group):
    poset = subconjugacy_poset(group)
    out.line(f"group {group.name}; classes (poset order): " + " ".join(poset.labels()))


# -- subcommand handlers ------------------------------------------------------


def _cmd_lattice(args, out: _Output) -> int:
    group = _group_from_arg(args.group)
    poset = subconjugacy_poset(group)
    if args.format == "json":
        out.json({
            "kind": "lattice",
            "group": group.name,
            "classes": [
                {
                    "label": cls.label,
                    "order": cls.order,
                    "size": len(cls.members),
                    "representative": list(cls.rep.elements),
                    "below": [
                        poset.label(j) for j in range(len(poset))
                        if poset.leq(i, j)
                    ],
                }
                for i, cls in enumerate(poset.classes)
            ],
        })
        return 0
    _print_class_header(out, group)
    for i, cls in enumerate(poset.classes):
        above = " ".join(
            poset.label(j) for j in range(len(poset)) if poset.leq(i, j)
        )
        out.line(
            f"{cls.label}: order {cls.order}, {len(cls.members)} conjugate(s), "
            f"rep {{{','.join(str(e) for e in cls.rep.elements)}}}, below {above}"
        )
    return 0


def _cmd_tom(args, out: _Output) -> int:
    group = _group_from_arg(args.group)
    poset = subconjugacy_poset(group)
    tom = table_of_marks(group)
    if args.format == "json":
        out.json({
            "kind": "table_of_marks",
            "group": group.name,
            "classes": list(poset.labels()),
            "rows": [list(r) for r in tom],
        })
        return 0
    labels = poset.labels()
    width = max(len(l) for l in labels) + 2
    num_width = max(len(str(v)) for row in tom for v in row) + 2
    out.line(" " * width + "".join(l.rjust(num_width) for l in labels))
    for label, row in zip(labels, tom):
        out.line(label.ljust(width) + "".join(str(v).rjust(num_width) for v in row))
    return 0


def _cmd_marks(args, out: _Output) -> int:
    group = _group_from_arg(args.group)
    coeffs = _coeffs_from_arg(args.coeffs, group)
    vec = marks(BurnsideElement(group, coeffs))
    poset = subconjugacy_poset(group)
    if args.format == "json":
        out.json({
            "kind": "marks",
            "group": group.name,
            "marks": {poset.label(i): v for i, v in enumerate(vec)},
        })
        return 0
    _print_class_header(out, group)
    out.line("marks: " + " ".join(f"{poset.label(i)}={v}" for i, v in enumerate(vec)))
    return 0


def _cmd_orbits(args, out: _Output) -> int:
    x = dsl.build_gset(dsl.parse_gset(args.gset))
    poset = subconjugacy_poset(x.group)
    classes = orbit_decompose(x, poset)
    counts: dict[int, int] = {}
    for c in classes:
        counts[c] = counts.get(c, 0) + 1
    if args.format == "json":
        out.json({
            "kind": "orbits",
            "group": x.group.name,
            "size": x.size,
            "orbit_classes": {poset.label(i): n for i, n in sorted(counts.items())},
        })
        return 0
    _print_class_header(out, x.group)
    pieces = [f"{n} x [G/{poset.label(i)}]" for i, n in sorted(counts.items())]
    out.line(f"{x.size} point(s): " + (" + ".join(pieces) if pieces else "empty"))
    return 0


def _cmd_burnside_mul(args, out: _Output) -> int:
    group = _group_from_arg(args.group)
    b1 = BurnsideElement(group, _coeffs_from_arg(args.left, group))
    b2 = BurnsideElement(group, _coeffs_from_arg(args.right, group))
    prod = burnside_mul(b1, b2)
    poset = subconjugacy_poset(group)
    if args.format == "json":
        out.json({
            "kind": "burnside_product",
            "group": group.name,
            "coefficients": {poset.label(i): c for i, c in enumerate(prod.coeffs)},
        })
        return 0
    _print_class_header(out, group)
    out.line("product: " + ",".join(str(c) for c in prod.coeffs))
    return 0


def _cmd_witt(args, out: _Output) -> int:
    group = _group_from_arg(args.group)
    poset = subconjugacy_poset(group)
    op = args.witt_op

    if op == "verify":
        runner = {
            "factorization": lambda: verify_ghost_factorization(
                group, samples=args.samples, seed=args.seed),
            "iso": lambda: verify_dress_siebeneicher_iso(group),
            "ring-axioms": lambda: verify_ring_axioms(group),
            "injectivity": lambda: verify_injectivity(
                group, samples=args.samples, seed=args.seed),
        }[args.property]
        report = runner()
        if args.format == "json":
            out.json(report.to_json())
        else:
            out.line(
                f"{report.name} on {report.group_name}: "
                f"{'ok' if report.ok else 'FAILED'} ({report.checked} checks)"
            )
            for witness in report.failures:
                out.line(f"  counterexample: {witness}")
        return 0 if report.ok else 1

    symbolic = args.symbolic
    w1 = _witt_from_arg(args.vector, group, symbolic)
    if op == "ghost":
        gvec = ghost(w1)
        if args.format == "json":
            out.json({
                "kind": "ghost",
                "group": group.name,
                "components": _witt_components_json(group, gvec.components),
            })
        else:
            out.line(_witt_tuple_str(group, gvec.components))
        return 0
    if op == "unghost":
        w = unghost(GhostVector(group, w1.components))
        if args.format == "json":
            out.json({
                "kind": "witt",
                "group": group.name,
                "components": _witt_components_json(group, w.components),
            })
        else:
            out.line(_witt_tuple_str(group, w.components))
        return 0
    if op == "tau":
        element = teichmuller_tau(w1)
        if args.format == "json":
            out.json({
                "kind": "burnside_element",
                "group": group.name,
                "coefficients": {
                    poset.label(i): str(Poly.coerce(c))
                    for i, c in enumerate(element.coeffs)
                },
            })
        else:
            _print_class_header(out, group)
            out.line("tau: " + ",".join(str(Poly.coerce(c)) for c in element.coeffs))
        return 0
    if op == "neg":
        w = witt_neg(w1)
        if args.format == "json":
            out.json({
                "kind": "witt",
                "group": group.name,
                "components": _witt_components_json(group, w.components),
            })
        else:
            out.line(_witt_tuple_str(group, w.components))
        return 0
    # binary add / mul
    w2 = _witt_from_arg(args.vector2, group, symbolic)
    w = witt_add(w1, w2) if op == "add" else witt_mul(w1, w2)
    if args.format == "json":
        out.json({
            "kind": "witt",
            "group": group.name,
            "components": _witt_components_json(group, w.components),
        })
    else:
        out.line(_witt_tuple_str(group, w.components))
    return 0


def _fiber_poly_lines(phi) -> list[str]:
    return [
        f"phi_y{fp.base_point} = {fp.poly}"
        for fp in fiber_polynomials(phi)
    ]


def _cmd_compose(args, out: _Output) -> int:
    phi = dsl.build_bispan(dsl.parse_bispan(args.bispan))
    if args.format == "json":
        out.json({
            "kind": "bispan",
            "sizes": [phi.x.size, phi.a.size, phi.b.size, phi.y.size],
            "fiber_polynomials": {
                f"y{fp.base_point}": str(fp.poly) for fp in fiber_polynomials(phi)
            },
            "simple": is_simple(phi),
        })
        return 0
    out.line(f"bispan: {phi.x.size} <- {phi.a.size} -> {phi.b.size} -> {phi.y.size}")
    for line in _fiber_poly_lines(phi):
        out.line(line)
    return 0


def _cmd_simple(args, out: _Output) -> int:
    phi = dsl.build_bispan(dsl.parse_bispan(args.bispan))
    simple = is_simple(phi)
    if args.format == "json":
        out.json({
            "kind": "simplicity",
            "simple": simple,
            "fiber_polynomials": {
                f"y{fp.base_point}": str(fp.poly) for fp in fiber_polynomials(phi)
            },
        })
        return 0
    out.line("simple" if simple else "not simple")
    for line in _fiber_poly_lines(phi):
        out.line(line)
    return 0


def _cmd_factor(args, out: _Output) -> int:
    phi = dsl.build_bispan(dsl.parse_bispan(args.bispan))
    p, q, r = canonical_factorization(phi)
    equivalent = bispan_equivalent(recompose(p, q, r), phi)
    if args.format == "json":
        out.json({
            "kind": "factorization",
            "p": list(p.images),
            "q": list(q.images),
            "r": list(r.images),
            "recomposition_equivalent": equivalent,
        })
        return 0 if equivalent else 1
    out.line(f"p: {list(p.images)}")
    out.line(f"q: {list(q.images)}")
    out.line(f"r: {list(r.images)}")
    out.line(f"recomposition equivalent: {'yes' if equivalent else 'NO'}")
    return 0 if equivalent else 1


def _parse_assignment(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    if not text.strip():
        return out
    for part in text.split(","):
        if "=" not in part:
            raise GwittError(f"assignment entry {part!r} is not name=size")
        name, size = part.split("=", 1)
        try:
            out[name.strip()] = int(size)
        except ValueError:
            raise GwittError(f"assignment size {size!r} is not an integer") from None
    return out


def _cmd_words(args, out: _Output) -> int:
    from .words import SetAssignment, coherence_iso, eval_word, supp

    if args.words_op == "supp":
        w = dsl.build_word(dsl.parse_word(args.word))
        poly = supp(w)
        if args.format == "json":
            out.json({"kind": "supp", "polynomial": str(poly)})
        else:
            out.line(str(poly))
        return 0
    assignment = SetAssignment.of(_parse_assignment(args.assign))
    if args.words_op == "eval":
        w = dsl.build_word(dsl.parse_word(args.word))
        elems = eval_word(w, assignment)
        if args.format == "json":
            out.json({
                "kind": "word_eval",
                "cardinality": len(elems),
                "elements": [repr(e) for e in elems],
            })
        else:
            out.line(f"{len(elems)} element(s)")
            for e in elems:
                out.line(f"  {e!r}")
        return 0
    # iso
    w = dsl.build_word(dsl.parse_word(args.word))
    w2 = dsl.build_word(dsl.parse_word(args.word2))
    bij = coherence_iso(w, w2, assignment)
    if args.format == "json":
        out.json({
            "kind": "coherence_iso",
            "pairs": [[repr(k), repr(v)] for k, v in bij.items()],
        })
        return 0
    out.line(f"bijection on {len(bij)} element(s)")
    for k, v in bij.items():
        out.line(f"  {k!r} -> {v!r}")
    return 0


def _cmd_check(args, out: _Output) -> int:
    group = _group_from_arg(args.group)
    if args.instance == "invariant":
        if args.base:
            base = dsl.build_gset(dsl.parse_gset(args.base))
            if base.group != group:
                raise GwittError("--base must live over --group")
        else:
            from .gsets import regular_gset
            base = regular_gset(group)
        instance = InvariantRingInstance(group, base)
    else:
        instance = BurnsideOverInstance(group)
    report = check_tambara_axioms(
        instance, budget=args.budget, seed=args.seed
    )
    if args.format == "json":
        out.json(report.to_json())
    else:
        out.line(
            f"tambara axioms for {report.instance} over {report.group_name} "
            f"(budget {report.budget}, seed {report.seed}): "
            f"{report.instances_checked} instances"
        )
        for check in report.checks:
            out.line(f"  {check.relation}: {check.status}")
            if check.witness:
                for key in sorted(check.witness):
                    out.line(f"    {key}: {check.witness[key]}")
    return 0 if report.ok else 1


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwitt",
        description="Exact bispan / Burnside / Witt-vector calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("lattice", help="conjugacy classes of subgroups and subconjugacy")
    p.add_argument("group")
    add_common(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("tom", help="table of marks")
    p.add_argument("group")
    add_common(p)
    p.set_defaults(func=_cmd_tom)

    p = sub.add_parser("marks", help="mark vector of a Burnside element")
    p.add_argument("group")
    p.add_argument("coeffs", help="comma-separated coefficients, poset order")
    add_common(p)
    p.set_defaults(func=_cmd_marks)

    p = sub.add_parser("orbits", help="orbit decomposition of a G-set expression")
    p.add_argument("gset")
    add_common(p)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("burnside", help="Burnside ring operations")
    bsub = p.add_subparsers(dest="burnside_op", required=True)
    pm = bsub.add_parser("mul", help="product of two Burnside elements")
    pm.add_argument("group")
    pm.add_argument("left")
    pm.add_argument("right")
    add_common(pm)
    pm.set_defaults(func=_cmd_burnside_mul)

    p = sub.add_parser("witt", help="Witt vector operations")
    wsub = p.add_subparsers(dest="witt_op", required=True)
    for name in ("ghost", "unghost", "tau", "neg"):
        pw = wsub.add_parser(name)
        pw.add_argument("group")
        pw.add_argument("vector", help="components, top class first")
        pw.add_argument("--symbolic", action="store_true")
        add_common(pw)
        pw.set_defaults(func=_cmd_witt, witt_op=name)
    for name in ("add", "mul"):
        pw = wsub.add_parser(name)
        pw.add_argument("group")
        pw.add_argument("vector")
        pw.add_argument("vector2")
        pw.add_argument("--symbolic", action="store_true")
        add_common(pw)
        pw.set_defaults(func=_cmd_witt, witt_op=name)
    pw = wsub.add_parser("verify")
    pw.add_argument("property", choices=("factorization", "iso", "ring-axioms", "injectivity"))
    pw.add_argument("group")
    pw.add_argument("--samples", type=non_negative_int, default=100)
    add_common(pw)
    pw.set_defaults(func=_cmd_witt, witt_op="verify")

    p = sub.add_parser("compose", help="evaluate a bispan expression")
    p.add_argument("bispan")
    add_common(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("simple", help="test simplicity of a bispan expression")
    p.add_argument("bispan")
    add_common(p)
    p.set_defaults(func=_cmd_simple)

    p = sub.add_parser("factor", help="generator factorization of a bispan")
    p.add_argument("bispan")
    add_common(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("words", help="free {+,*}-algebra words")
    wsub = p.add_subparsers(dest="words_op", required=True)
    ps = wsub.add_parser("supp")
    ps.add_argument("word")
    add_common(ps)
    ps.set_defaults(func=_cmd_words, words_op="supp")
    pe = wsub.add_parser("eval")
    pe.add_argument("word")
    pe.add_argument("--assign", required=True, help="x=2,y=3 set sizes")
    add_common(pe)
    pe.set_defaults(func=_cmd_words, words_op="eval")
    pi = wsub.add_parser("iso")
    pi.add_argument("word")
    pi.add_argument("word2")
    pi.add_argument("--assign", required=True)
    add_common(pi)
    pi.set_defaults(func=_cmd_words, words_op="iso")

    p = sub.add_parser("check", help="axiom checkers")
    csub = p.add_subparsers(dest="check_op", required=True)
    pt = csub.add_parser("tambara")
    pt.add_argument("--instance", choices=("invariant", "burnside"), default="invariant")
    pt.add_argument("--group", required=True)
    pt.add_argument("--budget", type=non_negative_int, default=4)
    pt.add_argument("--base", default=None, help="base G-set for the invariant instance")
    add_common(pt)
    pt.set_defaults(func=_cmd_check)

    return parser


def run(argv: list[str], stream=None) -> int:
    """Dispatch one command; returns the exit status."""
    stream = stream if stream is not None else sys.stdout
    out = _Output(stream)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except DslSyntaxError as exc:
        expected = f" (expected: {', '.join(exc.expected)})" if exc.expected else ""
        out.line(f"syntax error at line {exc.line}, column {exc.column}: {exc}{expected}")
        return 2
    except IntegralityError as exc:
        out.line(f"integrality error: {exc}")
        return 3
    except GwittError as exc:
        out.line(f"error: {exc}")
        return 2


def main() -> int:
    argv = sys.argv[1:]
    if not argv and not sys.stdin.isatty():
        # batch mode: one command per line on stdin
        status = 0
        for raw in sys.stdin:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            status = max(status, run(shlex.split(line)))
        return status
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
