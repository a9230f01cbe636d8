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

# Only what parsing arguments and reporting errors needs is imported here
# (dsl loads groups and intpoly); each handler imports the modules it
# computes with, so that one command loads no module another one needs.
from . import dsl
from .errors import DslSyntaxError, GwittError, IntegralityError
from .groups import Group, subconjugacy_poset
from .intpoly import Poly

TYPE_CHECKING = False  # annotations only, as in dsl
if TYPE_CHECKING:
    from .witt import WittVector
    from .words import SetAssignment, Word

SCHEMA = 1

# the most elements a `words eval` or `words iso` evaluation may build, and
# the largest set an --assign entry may name
MAX_EVAL_ELEMENTS = 100_000

# the largest --budget of `check tambara` (budget 5: 3.5-3.7 s on invariant
# C2, 20-22 s on Burnside S3, on a 2-core machine) and --samples of `witt verify`
MAX_BUDGET = 5
MAX_SAMPLES = 100_000


def _group_from_arg(text: str) -> Group:
    return dsl.build_group(dsl.parse_group(text))


class PastDigitCap(argparse.ArgumentTypeError):
    """An integer with more than dsl.MAX_DIGITS digits; as an argparse type
    error, argparse names the cap instead of repeating the argument."""


def integer(text: str) -> int:
    """An integer by the DSL's rule, else a ValueError (so no '+5', no '1_0'):
    an optional '-' and at most dsl.MAX_DIGITS decimal digits, spaces around;
    PastDigitCap for more digits."""
    digits = text.strip().removeprefix("-")
    if not digits.isdecimal():
        raise ValueError(f"not an integer: {text!r}")
    if len(digits) > dsl.MAX_DIGITS:
        raise PastDigitCap(f"more than {dsl.MAX_DIGITS} digits")
    return int(text)


def _coeffs_from_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(integer, text.split(","))) if text.strip() else ()
    except PastDigitCap as exc:
        raise GwittError(f"a coefficient has {exc}") from None
    except ValueError:
        raise GwittError(f"coefficients must be integers: {text!r}") from None


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
    from .burnside import mark_columns

    group = _group_from_arg(args.group)
    poset = subconjugacy_poset(group)
    classes, lines = [], [_class_header(group)]
    for cls, column in zip(poset.classes, mark_columns(group).above):
        above = [cls.label] + [poset.label(k) for k, _, _ in column]
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
    from .burnside import table_of_marks

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
    from .burnside import BurnsideElement, marks

    group = _group_from_arg(args.group)
    vec = marks(BurnsideElement(group, _coeffs_from_arg(args.coeffs)))
    _check_printable(vec)
    payload = _per_class(group, "marks", "marks", vec)
    line = "marks: " + " ".join(f"{label}={v}" for label, v in payload["marks"].items())
    return 0, payload, [_class_header(group), line]


def _cmd_orbits(args):
    from .gsets import orbit_decompose

    x = dsl.build_gset(dsl.parse_gset(args.gset))
    poset = subconjugacy_poset(x.group)
    counts: dict[int, int] = {}
    for c in orbit_decompose(x):
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
    from .burnside import BurnsideElement, burnside_mul

    group = _group_from_arg(args.group)
    b1 = BurnsideElement(group, _coeffs_from_arg(args.left))
    b2 = BurnsideElement(group, _coeffs_from_arg(args.right))
    prod = burnside_mul(b1, b2)
    _check_printable(prod.coeffs)
    payload = _per_class(group, "burnside_product", "coefficients", prod.coeffs)
    line = "product: " + ",".join(str(c) for c in prod.coeffs)
    return 0, payload, [_class_header(group), line]


def _witt_operands(args, group: Group) -> list[WittVector]:
    """The Witt vectors of the command's literals, each written top class
    first, refused before any is expanded.  Literal by literal: a count
    other than one per class, then variables without --symbolic (for tau,
    any variables).  Then, with --symbolic, a result component that may
    have more than dsl.MAX_TERMS terms, found by running the Witt layer's
    own maps on the literals' dsl.TermBound; last, build_vector's digit cap."""
    from .witt import _GHOST_OPS, WittVector, witt_context

    op, n = args.witt_op, len(subconjugacy_poset(group))
    texts = [args.vector] + ([args.vector2] if "vector2" in args else [])
    vectors = [dsl.parse_vector(t) for t in texts]
    bounds = []  # per literal, in poset order
    for vector in vectors:
        if len(vector.children) != n:
            raise GwittError(f"expected {n} components (top class first), "
                             f"got {len(vector.children)}")
        bound = [dsl.term_bound(c) for c in vector.children]
        bad = [dsl.to_text(c) for c, b in zip(vector.children, bound) if b.variables]
        if bad and not args.symbolic:
            raise GwittError(f"symbolic components {bad} need --symbolic")
        if bad and op == "tau":  # teichmuller_tau's refusal
            raise GwittError("the Teichmuller homomorphism needs integer components")
        bounds.append(bound[::-1])
    if args.symbolic and op != "tau":
        ctx = witt_context(group)
        if op == "unghost":
            kind, result = "Witt", ctx.unghost_components(bounds[0])
        else:  # neg reads its one operand twice
            kind, ghosts = "ghost", [ctx.ghost_components(b) for b in bounds]
            result = ghosts[0] if op == "ghost" else map(_GHOST_OPS[op], ghosts[0], ghosts[-1])
        for h, b in enumerate(result):
            if b.terms > dsl.MAX_TERMS:
                raise GwittError(f"the {kind} component at class {ctx.poset.label(h)} "
                                 f"may expand to more than {dsl.MAX_TERMS} terms")
    return [WittVector(group, tuple(reversed(dsl.build_vector(v)))) for v in vectors]


def _cmd_witt(args):
    from .witt import GhostVector, ghost, unghost, witt_add, witt_mul, witt_neg

    # witt subcommand -> (operation on WittVector operands, JSON kind)
    operation, kind = {
        "ghost": (ghost, "ghost"),
        "unghost": (lambda w: unghost(GhostVector(w.group, w.components)), "witt"),
        "neg": (witt_neg, "witt"),
        "add": (witt_add, "witt"),
        "mul": (witt_mul, "witt"),
    }[args.witt_op]
    group = _group_from_arg(args.group)
    result = operation(*_witt_operands(args, group))
    _check_printable(result.components)
    comps = [str(c) for c in result.components]
    # table output lists the top class first
    line = "(" + ", ".join(reversed(comps)) + ")"
    return 0, _per_class(group, kind, "components", comps), [line]


def _cmd_tau(args):
    from .witt import teichmuller_tau

    group = _group_from_arg(args.group)
    element = teichmuller_tau(*_witt_operands(args, group))
    _check_printable(element.coeffs)
    coeffs = [str(c) for c in element.coeffs]
    payload = _per_class(group, "burnside_element", "coefficients", coeffs)
    return 0, payload, [_class_header(group), "tau: " + ",".join(coeffs)]


def _cmd_verify(args):
    from .witt import (
        verify_dress_siebeneicher_iso,
        verify_ghost_factorization,
        verify_injectivity,
        verify_ring_axioms,
    )

    if args.samples is None:
        args.samples = 100
    elif args.property in ("iso", "ring-axioms"):
        raise GwittError(f"--samples does not apply to {args.property}")
    if args.seed is None:
        args.seed = 0
    elif args.property == "iso":
        raise GwittError("--seed does not apply to iso")
    group = _group_from_arg(args.group)
    if args.property == "factorization":
        report = verify_ghost_factorization(group, samples=args.samples, seed=args.seed)
    elif args.property == "iso":
        report = verify_dress_siebeneicher_iso(group)
    elif args.property == "ring-axioms":
        report = verify_ring_axioms(group, seed=args.seed)
    else:
        report = verify_injectivity(group, samples=args.samples, seed=args.seed)
    lines = [
        f"{report.name} on {report.group_name}: "
        f"{'ok' if report.ok else 'FAILED'} ({report.checked} checks)"
    ]
    lines += [f"  counterexample: {witness}" for witness in report.failures]
    return (0 if report.ok else 1), report.to_json(), lines


def _fiber_polys(phi) -> tuple[dict, list[str], bool]:
    """The fiber polynomials of a bispan as a JSON map and as table lines,
    and whether the bispan is simple (every fiber polynomial is)."""
    from .bispans import fiber_polynomials

    fps = fiber_polynomials(phi)
    return (
        {f"y{fp.base_point}": str(fp.poly) for fp in fps},
        [f"phi_y{fp.base_point} = {fp.poly}" for fp in fps],
        all(fp.poly.is_simple() for fp in fps),
    )


def _cmd_compose(args):
    phi = dsl.build_bispan(dsl.parse_bispan(args.bispan))
    polys, lines, simple = _fiber_polys(phi)
    payload = {
        "kind": "bispan",
        "sizes": [phi.x.size, phi.a.size, phi.b.size, phi.y.size],
        "fiber_polynomials": polys,
        "simple": simple,
    }
    head = f"bispan: {phi.x.size} <- {phi.a.size} -> {phi.b.size} -> {phi.y.size}"
    return 0, payload, [head] + lines


def _cmd_simple(args):
    phi = dsl.build_bispan(dsl.parse_bispan(args.bispan))
    polys, lines, simple = _fiber_polys(phi)
    payload = {"kind": "simplicity", "simple": simple, "fiber_polynomials": polys}
    return 0, payload, ["simple" if simple else "not simple"] + lines


def _cmd_factor(args):
    from .bispans import bispan_equivalent, recompose

    phi = dsl.build_bispan(dsl.parse_bispan(args.bispan))
    equivalent = bispan_equivalent(recompose(phi.p, phi.q, phi.r), phi)
    legs = {"p": list(phi.p.images), "q": list(phi.q.images), "r": list(phi.r.images)}
    payload = {"kind": "factorization", **legs, "recomposition_equivalent": equivalent}
    lines = [f"{name}: {images}" for name, images in legs.items()]
    lines.append(f"recomposition equivalent: {'yes' if equivalent else 'NO'}")
    return (0 if equivalent else 1), payload, lines


def _is_identifier(text: str) -> bool:
    """Whether `text` is one DSL identifier, the only name a word can read."""
    try:
        return [t.kind for t in dsl.tokenize(text)] == ["ident", "eof"]
    except DslSyntaxError:
        return False


def _parse_assignment(text: str) -> SetAssignment:
    from .words import SetAssignment

    sizes: dict[str, int] = {}
    for part in text.split(",") if text.strip() else ():
        if "=" not in part:
            raise GwittError(f"assignment entry {part!r} is not name=size")
        name, size = part.split("=", 1)
        name = name.strip()
        if not _is_identifier(name):
            raise GwittError(f"assignment name {name!r} is not an identifier")
        if name in sizes:
            raise GwittError(f"variable {name!r} is assigned twice")
        try:
            sizes[name] = integer(size)
        except PastDigitCap as exc:
            raise GwittError(f"an assignment size has {exc}") from None
        except ValueError:
            raise GwittError(f"assignment size {size!r} is not an integer") from None
        if not 0 <= sizes[name] <= MAX_EVAL_ELEMENTS:
            raise GwittError(
                f"set size {sizes[name]} for {name!r} is outside 0..{MAX_EVAL_ELEMENTS}"
            )
    return SetAssignment.of(sizes)


def _word_within_cap(text: str, assignment: SetAssignment) -> Word:
    from .words import eval_size

    w = dsl.build_word(dsl.parse_word(text))
    size = eval_size(w, assignment)
    if size > MAX_EVAL_ELEMENTS:
        raise GwittError(
            f"evaluating {text!r} builds {size} elements, above the cap {MAX_EVAL_ELEMENTS}"
        )
    return w


def _cmd_words_supp(args):
    from .words import supp

    poly = supp(dsl.build_word(dsl.parse_word(args.word)))
    _check_printable([poly])
    return 0, {"kind": "supp", "polynomial": str(poly)}, [str(poly)]


def _cmd_words_eval(args):
    from .words import eval_word

    assignment = _parse_assignment(args.assign)
    elems = eval_word(_word_within_cap(args.word, assignment), assignment)
    payload = {
        "kind": "word_eval",
        "cardinality": len(elems),
        "elements": [repr(e) for e in elems],
    }
    return 0, payload, [f"{len(elems)} element(s)"] + [f"  {e!r}" for e in elems]


def _cmd_words_iso(args):
    from .words import coherence_iso

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
    from .gsets import regular_gset
    from .tambara import BurnsideOverInstance, InvariantRingInstance, check_tambara_axioms

    if args.base is not None and args.instance != "invariant":
        raise GwittError("--base applies only to --instance invariant")
    group = _group_from_arg(args.group)
    if args.instance == "invariant":
        base = (regular_gset(group) if args.base is None
                else dsl.build_gset(dsl.parse_gset(args.base)))
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
        value = integer(text)
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
    pw.add_argument("--samples", type=count_up_to(MAX_SAMPLES))
    add_common(pw, _cmd_verify)
    pw.add_argument("--seed", type=integer)  # default 0; refused for iso

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
    pt.add_argument("--seed", type=integer, default=0)

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
            try:
                argv = shlex.split(line)
            except ValueError as exc:  # e.g. an unclosed quotation
                sys.stderr.write(f"error: {exc}\n")
                status = max(status, 2)
                continue
            status = max(status, run(argv))
        return status
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
