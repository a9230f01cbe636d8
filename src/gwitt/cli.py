"""Command-line surface.

Vector literals for Witt commands are ordered from the top class [G] down
to the trivial class, matching the classical Witt-coordinate convention;
Burnside coefficient and mark vectors are ordered the other way, following
the subconjugacy poset (trivial class first).  Table output labels every
class, so the orientation is always visible.

Exit codes: 0 success, 1 verification counterexample, 2 usage or parse
error, 3 integrality failure.  Only a successful run writes to stdout; the
report of a failed verification and every error line go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys

from . import dsl
from .bispans import bispan_equivalent, fiber_polynomials, is_simple, recompose
from .burnside import BurnsideElement, burnside_mul, marks, table_of_marks
from .errors import DslSyntaxError, GwittError, IntegralityError
from .groups import Group, subconjugacy_poset
from .gsets import orbit_decompose, regular_gset
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
    witt_context,
    witt_mul,
    witt_neg,
)
from .words import SetAssignment, Word, coherence_iso, eval_size, eval_word, supp

SCHEMA = 1

# the most elements a `words eval` or `words iso` evaluation may build, and
# the largest set an --assign entry may name
MAX_EVAL_ELEMENTS = 100_000

# the largest --budget of `check tambara` (budget 5 already takes one to two
# minutes) and --samples of `witt verify`
MAX_BUDGET = 5
MAX_SAMPLES = 100_000


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


def _witt_from_arg(vector: dsl.Node, group: Group, symbolic: bool) -> WittVector:
    entries = dsl.build_vector(vector)  # top class first
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


def _class_header(group: Group) -> str:
    poset = subconjugacy_poset(group)
    return f"group {group.name}; classes (poset order): " + " ".join(poset.labels())


def _per_class(group: Group, kind: str, key: str, values) -> dict:
    """A JSON payload mapping each class label to its value, in poset order."""
    poset = subconjugacy_poset(group)
    return {
        "kind": kind,
        "group": group.name,
        key: {poset.label(i): v for i, v in enumerate(values)},
    }


@functools.cache
def _digit_bound(limit: int) -> int:
    return 10 ** limit


def _check_printable(values) -> None:
    """Raise GwittError if an integer among `values`, or a coefficient of a
    polynomial among them, has more decimal digits than Python converts to
    text (`sys.get_int_max_str_digits`, absent before Python 3.10.7).  The
    limit is interpreter-wide state, so it is reported, not raised."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    bound = _digit_bound(limit)
    for value in values:
        for c in value.terms.values() if isinstance(value, Poly) else (value,):
            if abs(c) >= bound:
                raise GwittError(
                    f"a result has more than {limit} decimal digits, "
                    "Python's integer-to-text limit"
                )


# -- subcommand handlers ------------------------------------------------------
#
# Each handler returns (exit status, JSON payload, table lines); run() writes
# one of the two.


def _cmd_lattice(args):
    group = _group_from_arg(args.group)
    poset = subconjugacy_poset(group)
    classes, lines = [], [_class_header(group)]
    for i, cls in enumerate(poset.classes):
        above = [cls.label] + [poset.label(k) for k in poset.census.above[i][::2]]
        classes.append({
            "label": cls.label,
            "order": cls.order,
            "size": len(cls.members),
            "representative": list(cls.rep.elements),
            "below": above,
        })
        lines.append(
            f"{cls.label}: order {cls.order}, {len(cls.members)} conjugate(s), "
            f"rep {{{','.join(str(e) for e in cls.rep.elements)}}}, below {' '.join(above)}"
        )
    return 0, {"kind": "lattice", "group": group.name, "classes": classes}, lines


def _cmd_tom(args):
    group = _group_from_arg(args.group)
    labels = subconjugacy_poset(group).labels()
    tom = table_of_marks(group)
    width = max(len(l) for l in labels) + 2
    num_width = max(len(str(v)) for row in tom for v in row) + 2
    lines = [" " * width + "".join(l.rjust(num_width) for l in labels)]
    for label, row in zip(labels, tom):
        lines.append(label.ljust(width) + "".join(str(v).rjust(num_width) for v in row))
    payload = {
        "kind": "table_of_marks",
        "group": group.name,
        "classes": list(labels),
        "rows": [list(r) for r in tom],
    }
    return 0, payload, lines


def _cmd_marks(args):
    group = _group_from_arg(args.group)
    coeffs = _coeffs_from_arg(args.coeffs, group)
    vec = marks(BurnsideElement(group, coeffs))
    _check_printable(vec)
    payload = _per_class(group, "marks", "marks", vec)
    line = "marks: " + " ".join(f"{label}={v}" for label, v in payload["marks"].items())
    return 0, payload, [_class_header(group), line]


def _cmd_orbits(args):
    x = dsl.build_gset(dsl.parse_gset(args.gset))
    poset = subconjugacy_poset(x.group)
    counts: dict[int, int] = {}
    for c in orbit_decompose(x, poset):
        counts[c] = counts.get(c, 0) + 1
    by_label = {poset.label(i): n for i, n in sorted(counts.items())}
    pieces = [f"{n} x [G/{label}]" for label, n in by_label.items()]
    payload = {
        "kind": "orbits",
        "group": x.group.name,
        "size": x.size,
        "orbit_classes": by_label,
    }
    line = f"{x.size} point(s): " + (" + ".join(pieces) if pieces else "empty")
    return 0, payload, [_class_header(x.group), line]


def _cmd_burnside_mul(args):
    group = _group_from_arg(args.group)
    b1 = BurnsideElement(group, _coeffs_from_arg(args.left, group))
    b2 = BurnsideElement(group, _coeffs_from_arg(args.right, group))
    prod = burnside_mul(b1, b2)
    _check_printable(prod.coeffs)
    payload = _per_class(group, "burnside_product", "coefficients", prod.coeffs)
    line = "product: " + ",".join(str(c) for c in prod.coeffs)
    return 0, payload, [_class_header(group), line]


def _unghost(w: WittVector) -> WittVector:
    return unghost(GhostVector(w.group, w.components))


# witt subcommand -> (operation on WittVector operands, JSON kind)
_WITT_OPS = {
    "ghost": (ghost, "ghost"),
    "unghost": (_unghost, "witt"),
    "neg": (witt_neg, "witt"),
    "add": (witt_add, "witt"),
    "mul": (witt_mul, "witt"),
}


def _check_ghost_terms(group: Group, op: str, vectors) -> None:
    """Refuse a symbolic ghost, neg, add or mul whose ghost components may
    expand past dsl.MAX_TERMS terms, before any literal is expanded: the
    ghost map and the operation run on the literals' dsl.TermBound."""
    ctx = witt_context(group)
    if any(len(v.children) != ctx.n for v in vectors):
        return  # _witt_from_arg reports the count
    ghost, *other = (ctx.ghost_components([dsl.term_bound(c) for c in reversed(v.children)])
                     for v in vectors)
    for h, bound in enumerate(ghost):
        if other:
            bound = bound * other[0][h] if op == "mul" else bound + other[0][h]
        if bound.terms > dsl.MAX_TERMS:
            raise GwittError(f"the ghost component at class {ctx.poset.label(h)} "
                             f"may expand to more than {dsl.MAX_TERMS} terms")


def _cmd_witt(args):
    group = _group_from_arg(args.group)
    operation, kind = _WITT_OPS[args.witt_op]
    texts = [args.vector] + ([args.vector2] if "vector2" in args else [])
    vectors = [dsl.parse_vector(t) for t in texts]
    if args.symbolic and args.witt_op != "unghost":
        _check_ghost_terms(group, args.witt_op, vectors)
    result = operation(*(_witt_from_arg(v, group, args.symbolic) for v in vectors))
    _check_printable(result.components)
    comps = [str(Poly.coerce(c)) for c in result.components]
    # table output lists the top class first
    line = "(" + ", ".join(reversed(comps)) + ")"
    return 0, _per_class(group, kind, "components", comps), [line]


def _cmd_tau(args):
    group = _group_from_arg(args.group)
    element = teichmuller_tau(_witt_from_arg(dsl.parse_vector(args.vector), group, args.symbolic))
    _check_printable(element.coeffs)
    coeffs = [str(Poly.coerce(c)) for c in element.coeffs]
    payload = _per_class(group, "burnside_element", "coefficients", coeffs)
    return 0, payload, [_class_header(group), "tau: " + ",".join(coeffs)]


_VERIFIERS = {
    "factorization": lambda group, args: verify_ghost_factorization(
        group, samples=args.samples, seed=args.seed),
    "iso": lambda group, args: verify_dress_siebeneicher_iso(group),
    "ring-axioms": lambda group, args: verify_ring_axioms(group),
    "injectivity": lambda group, args: verify_injectivity(
        group, samples=args.samples, seed=args.seed),
}


def _cmd_verify(args):
    report = _VERIFIERS[args.property](_group_from_arg(args.group), args)
    lines = [
        f"{report.name} on {report.group_name}: "
        f"{'ok' if report.ok else 'FAILED'} ({report.checked} checks)"
    ]
    lines += [f"  counterexample: {witness}" for witness in report.failures]
    return (0 if report.ok else 1), report.to_json(), lines


def _fiber_polys(phi) -> tuple[dict, list[str]]:
    """The fiber polynomials of a bispan as a JSON map and as table lines."""
    fps = fiber_polynomials(phi)
    return (
        {f"y{fp.base_point}": str(fp.poly) for fp in fps},
        [f"phi_y{fp.base_point} = {fp.poly}" for fp in fps],
    )


def _cmd_compose(args):
    phi = dsl.build_bispan(dsl.parse_bispan(args.bispan))
    polys, lines = _fiber_polys(phi)
    payload = {
        "kind": "bispan",
        "sizes": [phi.x.size, phi.a.size, phi.b.size, phi.y.size],
        "fiber_polynomials": polys,
        "simple": is_simple(phi),
    }
    head = f"bispan: {phi.x.size} <- {phi.a.size} -> {phi.b.size} -> {phi.y.size}"
    return 0, payload, [head] + lines


def _cmd_simple(args):
    phi = dsl.build_bispan(dsl.parse_bispan(args.bispan))
    simple = is_simple(phi)
    polys, lines = _fiber_polys(phi)
    payload = {"kind": "simplicity", "simple": simple, "fiber_polynomials": polys}
    return 0, payload, ["simple" if simple else "not simple"] + lines


def _cmd_factor(args):
    phi = dsl.build_bispan(dsl.parse_bispan(args.bispan))
    equivalent = bispan_equivalent(recompose(phi.p, phi.q, phi.r), phi)
    legs = {"p": list(phi.p.images), "q": list(phi.q.images), "r": list(phi.r.images)}
    payload = {"kind": "factorization", **legs, "recomposition_equivalent": equivalent}
    lines = [f"{name}: {images}" for name, images in legs.items()]
    lines.append(f"recomposition equivalent: {'yes' if equivalent else 'NO'}")
    return (0 if equivalent else 1), payload, lines


def _parse_assignment(text: str) -> SetAssignment:
    sizes: dict[str, int] = {}
    for part in text.split(",") if text.strip() else ():
        if "=" not in part:
            raise GwittError(f"assignment entry {part!r} is not name=size")
        name, size = part.split("=", 1)
        name = name.strip()
        if name in sizes:
            raise GwittError(f"variable {name!r} is assigned twice")
        try:
            sizes[name] = int(size)
        except ValueError:
            raise GwittError(f"assignment size {size!r} is not an integer") from None
        if not 0 <= sizes[name] <= MAX_EVAL_ELEMENTS:
            raise GwittError(
                f"set size {sizes[name]} for {name!r} is outside 0..{MAX_EVAL_ELEMENTS}"
            )
    return SetAssignment.of(sizes)


def _word_within_cap(text: str, assignment: SetAssignment) -> Word:
    w = dsl.build_word(dsl.parse_word(text))
    size = eval_size(w, assignment)
    if size > MAX_EVAL_ELEMENTS:
        raise GwittError(
            f"evaluating {text!r} builds {size} elements, above the cap {MAX_EVAL_ELEMENTS}"
        )
    return w


def _cmd_words_supp(args):
    poly = supp(dsl.build_word(dsl.parse_word(args.word)))
    _check_printable([poly])
    return 0, {"kind": "supp", "polynomial": str(poly)}, [str(poly)]


def _cmd_words_eval(args):
    assignment = _parse_assignment(args.assign)
    elems = eval_word(_word_within_cap(args.word, assignment), assignment)
    payload = {
        "kind": "word_eval",
        "cardinality": len(elems),
        "elements": [repr(e) for e in elems],
    }
    return 0, payload, [f"{len(elems)} element(s)"] + [f"  {e!r}" for e in elems]


def _cmd_words_iso(args):
    assignment = _parse_assignment(args.assign)
    w = _word_within_cap(args.word, assignment)
    w2 = _word_within_cap(args.word2, assignment)
    bij = coherence_iso(w, w2, assignment)
    payload = {
        "kind": "coherence_iso",
        "pairs": [[repr(k), repr(v)] for k, v in bij.items()],
    }
    lines = [f"bijection on {len(bij)} element(s)"]
    lines += [f"  {k!r} -> {v!r}" for k, v in bij.items()]
    return 0, payload, lines


def _cmd_check(args):
    group = _group_from_arg(args.group)
    if args.instance == "invariant":
        if args.base:
            base = dsl.build_gset(dsl.parse_gset(args.base))
            if base.group != group:
                raise GwittError("--base must live over --group")
        else:
            base = regular_gset(group)
        instance = InvariantRingInstance(group, base)
    else:
        instance = BurnsideOverInstance(group)
    report = check_tambara_axioms(
        instance, budget=args.budget, seed=args.seed
    )
    lines = [
        f"tambara axioms for {report.instance} over {report.group_name} "
        f"(budget {report.budget}, seed {report.seed}): "
        f"{report.instances_checked} instances"
    ]
    for check in report.checks:
        lines.append(f"  {check.relation}: {check.status}")
        if check.witness:
            lines += [f"    {key}: {check.witness[key]}" for key in sorted(check.witness)]
    return (0 if report.ok else 1), report.to_json(), lines


def count_up_to(limit: int):
    """The argparse type of a count from 0 to `limit`."""
    # argparse names the type in its "invalid non_negative_int value" error
    def non_negative_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}, got {value}")
        return value
    return non_negative_int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwitt",
        description="Exact bispan / Burnside / Witt-vector calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=handler)

    p = sub.add_parser("lattice", help="conjugacy classes of subgroups and subconjugacy")
    p.add_argument("group")
    add_common(p, _cmd_lattice)

    p = sub.add_parser("tom", help="table of marks")
    p.add_argument("group")
    add_common(p, _cmd_tom)

    p = sub.add_parser("marks", help="mark vector of a Burnside element")
    p.add_argument("group")
    p.add_argument("coeffs", help="comma-separated coefficients, poset order")
    add_common(p, _cmd_marks)

    p = sub.add_parser("orbits", help="orbit decomposition of a G-set expression")
    p.add_argument("gset")
    add_common(p, _cmd_orbits)

    p = sub.add_parser("burnside", help="Burnside ring operations")
    bsub = p.add_subparsers(dest="burnside_op", required=True)
    pm = bsub.add_parser("mul", help="product of two Burnside elements")
    pm.add_argument("group")
    pm.add_argument("left")
    pm.add_argument("right")
    add_common(pm, _cmd_burnside_mul)

    p = sub.add_parser("witt", help="Witt vector operations")
    wsub = p.add_subparsers(dest="witt_op", required=True)
    for name in ("ghost", "unghost", "tau", "neg"):
        pw = wsub.add_parser(name)
        pw.add_argument("group")
        pw.add_argument("vector", help="components, top class first")
        pw.add_argument("--symbolic", action="store_true")
        add_common(pw, _cmd_tau if name == "tau" else _cmd_witt)
    for name in ("add", "mul"):
        pw = wsub.add_parser(name)
        pw.add_argument("group")
        pw.add_argument("vector")
        pw.add_argument("vector2")
        pw.add_argument("--symbolic", action="store_true")
        add_common(pw, _cmd_witt)
    pw = wsub.add_parser("verify")
    pw.add_argument("property", choices=("factorization", "iso", "ring-axioms", "injectivity"))
    pw.add_argument("group")
    pw.add_argument("--samples", type=count_up_to(MAX_SAMPLES), default=100)
    add_common(pw, _cmd_verify)

    p = sub.add_parser("compose", help="evaluate a bispan expression")
    p.add_argument("bispan")
    add_common(p, _cmd_compose)

    p = sub.add_parser("simple", help="test simplicity of a bispan expression")
    p.add_argument("bispan")
    add_common(p, _cmd_simple)

    p = sub.add_parser("factor", help="generator factorization of a bispan")
    p.add_argument("bispan")
    add_common(p, _cmd_factor)

    p = sub.add_parser("words", help="free {+,*}-algebra words")
    wsub = p.add_subparsers(dest="words_op", required=True)
    ps = wsub.add_parser("supp")
    ps.add_argument("word")
    add_common(ps, _cmd_words_supp)
    pe = wsub.add_parser("eval")
    pe.add_argument("word")
    pe.add_argument("--assign", required=True, help="x=2,y=3 set sizes")
    add_common(pe, _cmd_words_eval)
    pi = wsub.add_parser("iso")
    pi.add_argument("word")
    pi.add_argument("word2")
    pi.add_argument("--assign", required=True)
    add_common(pi, _cmd_words_iso)

    p = sub.add_parser("check", help="axiom checkers")
    csub = p.add_subparsers(dest="check_op", required=True)
    pt = csub.add_parser("tambara")
    pt.add_argument("--instance", choices=("invariant", "burnside"), default="invariant")
    pt.add_argument("--group", required=True)
    pt.add_argument("--budget", type=count_up_to(MAX_BUDGET), default=4)
    pt.add_argument("--base", default=None, help="base G-set for the invariant instance")
    add_common(pt, _cmd_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: building it is most of a warm command's time
    return build_parser()


def run(argv: list[str], stream=None) -> int:
    """Dispatch one command and return the exit status.  This is the only
    writer: on success, JSON as one sorted object with the schema number or
    the table lines go to `stream` (stdout by default); on any other exit
    status they, or the one error line, go to stderr and `stream` stays
    empty."""
    stream = stream if stream is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status, payload, lines = args.func(args)
        if args.format == "json":
            lines = [json.dumps({"schema": SCHEMA, **payload}, sort_keys=True)]
    except DslSyntaxError as exc:
        expected = f" (expected: {', '.join(exc.expected)})" if exc.expected else ""
        status, lines = 2, [
            f"syntax error at line {exc.line}, column {exc.column}: {exc}{expected}"
        ]
    except IntegralityError as exc:
        status, lines = 3, [f"integrality error: {exc}"]
    except GwittError as exc:
        status, lines = 2, [f"error: {exc}"]
    out = stream if status == 0 else sys.stderr
    out.write("".join(line + "\n" for line in lines))
    return status


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
