"""Command-line front end.

Exit codes: 0 success, 1 negative verdict (``check`` on a language that is
not suffix-free, ``verify-fooling-set`` on a set that does not fool), 2
usage error (also an output file that cannot be written), and for a
package error the code ``_EXIT_CODES`` gives its type: 2 parse error or a
parameter or budget refused, 3 precondition violation, 4 certification
failure.  Output files are written atomically.
"""

from __future__ import annotations

import json
import sys

import click

from . import serialize
from .automata import Nfa, enumerate_words, remove_lambda
from .bounds import (
    OPERATIONS,
    FoolingSet,
    LowerBoundKind,
    Operation,
    certify,
    nsc_exhaustive,
    verify_fooling_set,
)
from .errors import (
    BudgetExceeded,
    CertificateError,
    NonReturningViolation,
    ParameterOutOfRange,
    ParseError,
    PreconditionViolation,
    SearchBudgetExceeded,
    SfnfaError,
    SuffixFreeViolation,
)
from .suffixfree import is_non_returning, is_suffix_free
from .witnesses import Family, WitnessSpec, build

# The exit code of each package error, matched with isinstance in order.
_EXIT_CODES = {
    ParseError: 2,
    ParameterOutOfRange: 2,
    BudgetExceeded: 2,
    SearchBudgetExceeded: 2,
    PreconditionViolation: 3,
    CertificateError: 4,
}


def _write(path, text):
    """Write an output file atomically; a path that cannot be written
    (empty, a directory, a missing parent) is a usage error, exit 2."""
    try:
        serialize.write_text_atomic(path, text)
    except OSError as exc:
        click.echo(f"error: cannot write {path!r}: {exc.strerror or exc}", err=True)
        sys.exit(2)


def _pair_text(alpha, pair):
    shorter, longer = pair
    return f"({alpha.text(shorter) or 'λ'}, {alpha.text(longer)})"


def _message(exc):
    """The text of a package error; a precondition witness prints in labels."""
    if isinstance(exc, NonReturningViolation):
        src, sym, dst = exc.transition
        return ("non-returning precondition violated "
                f"(witness transition ({src}, {exc.alphabet.labels[sym]}, {dst}))")
    if isinstance(exc, SuffixFreeViolation):
        return ("suffix-free precondition violated "
                f"(witness pair {_pair_text(exc.alphabet, exc.witness)})")
    return str(exc)


class _Cli(click.Group):
    """Runs a command and turns a package error into ``error: <message>``
    on stderr and the exit code ``_EXIT_CODES`` gives its type."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SfnfaError as exc:
            click.echo(f"error: {_message(exc)}", err=True)
            sys.exit(next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls)))


@click.group(cls=_Cli)
def main():
    """State-optimal NFA operations on suffix-free regular languages."""


@main.command()
@click.argument("automaton", type=click.Path(exists=False))
@click.option("--json", "as_json", is_flag=True, help="emit a JSON verdict")
def check(automaton, as_json):
    """Report suffix-freeness and the non-returning flag of an automaton."""
    nfa = remove_lambda(serialize.load(automaton))
    verdict = is_suffix_free(nfa)
    non_ret = is_non_returning(nfa)
    if as_json:
        witness = None
        if verdict.witness is not None:
            shorter, longer = verdict.witness
            witness = [nfa.alphabet.text(shorter), nfa.alphabet.text(longer)]
        click.echo(json.dumps({"suffix_free": verdict.suffix_free, "witness": witness}))
    else:
        yn = {True: "yes", False: "no"}
        line = f"suffix-free: {yn[verdict.suffix_free]}; non-returning: {yn[non_ret]}"
        if verdict.witness is not None:
            line += f"; witness: {_pair_text(nfa.alphabet, verdict.witness)}"
        click.echo(line)
    sys.exit(0 if verdict.suffix_free else 1)


# The command spellings of `op`.
_OP_NAMES = {
    "union": Operation.UNION,
    "concat": Operation.CATENATION,
    "intersect": Operation.INTERSECTION,
    "star": Operation.STAR,
    "reverse": Operation.REVERSAL,
    "complement": Operation.COMPLEMENTATION,
}


@main.command()
@click.argument("name", type=click.Choice(sorted(_OP_NAMES)))
@click.argument("inputs", nargs=-1, type=click.Path())
@click.option("-o", "--output", type=click.Path(), required=True)
@click.option("--dot", "dot_path", type=click.Path(), default=None,
              help="also export Graphviz DOT")
@click.option("--strict", is_flag=True, help="verify suffix-freeness of inputs")
def op(name, inputs, output, dot_path, strict):
    """Apply a construction to one or two automaton files."""
    spec = OPERATIONS[_OP_NAMES[name]]
    arity = 2 if spec.binary else 1
    if len(inputs) != arity:
        click.echo(f"error: {name} takes {arity} input file(s)", err=True)
        sys.exit(2)
    result = spec.construct(*map(serialize.load, inputs), strict=strict)
    _write(output, serialize.to_json(result) + "\n")
    if dot_path:
        _write(dot_path, serialize.to_dot(result))


@main.command()
@click.argument("family", type=click.Choice([f.value for f in Family]))
@click.option("--m", "m", type=int, required=True)
@click.option("--n", "n", type=int, default=None)
@click.option("-o", "--output", type=click.Path(), default=None,
              help="write to a file instead of stdout")
def witness(family, m, n, output):
    """Emit a witness automaton (pair families emit a JSON array).  A
    witness too large to load back is refused with exit 2."""
    built = build(WitnessSpec(Family(family), m, n))
    if isinstance(built, Nfa):
        text = serialize.to_json(built)
    else:
        text = "[" + ", ".join(map(serialize.to_json, built)) + "]"
    if output:
        _write(output, text + "\n")
    else:
        click.echo(text)


@main.command("verify-fooling-set")
@click.argument("automaton", type=click.Path())
@click.argument("pairs_file", type=click.Path())
def verify_fooling_set_cmd(automaton, pairs_file):
    """Verify a fooling-set certificate ([["x","w"], ...], "" for λ)."""
    nfa = serialize.load(automaton)
    try:
        with open(pairs_file, encoding="utf-8") as fh:
            raw = json.load(fh)
        if type(raw) is not list or any(type(pair) is not list for pair in raw):
            raise TypeError('expected a list of ["x", "w"] pairs')
        pairs = tuple((x, w) for x, w in raw)
        for text in (t for pair in pairs for t in pair):
            if type(text) is not str:
                raise TypeError(f"pair entry {text!r} is not a string")
            nfa.alphabet.word(text)
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ParseError(f"bad pairs file: {exc}") from exc
    ok = verify_fooling_set(nfa, FoolingSet(pairs))
    click.echo(
        f"verified: {'yes' if ok else 'no'}; "
        f"certified lower bound: {len(pairs) if ok else 0}"
    )
    sys.exit(0 if ok else 1)


@main.command()
@click.argument("automaton", type=click.Path())
@click.option("--max-states", "max_states", type=click.IntRange(min=1), required=True)
def nsc(automaton, max_states):
    """Exhaustive minimal-NFA search up to a state ceiling."""
    result = nsc_exhaustive(serialize.load(automaton), max_states)
    click.echo("none" if result is None else str(result))


@main.command("certify")
@click.argument("operation", type=click.Choice([o.value for o in Operation]))
@click.option("--m", "m", type=int, required=True)
@click.option("--n", "n", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
@click.option("--seed", type=int, default=0,
              help="accepted for compatibility; has no effect")
def certify_cmd(operation, m, n, as_json, seed):
    """Certify one operation at (m, n): construction vs. lower bound."""
    report = certify(Operation(operation), m, n, seed=seed)
    if as_json:
        click.echo(json.dumps(report.to_dict()))
    else:
        click.echo(
            f"{report.operation.value} m={report.m}"
            + (f" n={report.n}" if report.n is not None else "")
            + f": constructed={report.constructed_size}"
            f" lower_bound={report.lower_bound}"
            f" formula={report.formula_value}"
            f" tight={'yes' if report.tight else 'no'}"
        )


def _parse_range(text):
    """``A..B`` or ``A`` as a range; an empty one (B < A) is refused."""
    try:
        lo, hi = text.split("..") if ".." in text else (text, text)
        values = range(int(lo), int(hi) + 1)
    except ValueError:
        values = range(0)
    if not values:
        click.echo(f"error: bad range {text!r}, expected A..B", err=True)
        sys.exit(2)
    return values


def _verdict(report) -> str:
    if report.tight:
        return "TIGHT"
    if report.lower_bound_kind is LowerBoundKind.NONE:
        return "UPPER-ONLY"
    return "GAP"


@main.command()
@click.option("--m", "m_range", default="2..4", help="range A..B")
@click.option("--n", "n_range", default=None, help="range A..B (binary ops)")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text")
@click.option("--seed", type=int, default=0,
              help="accepted for compatibility; has no effect")
def table(m_range, n_range, fmt, seed):
    """Certification table across parameter ranges, in the order of the
    summary table (catenation, union, intersection, star, reversal,
    complementation)."""
    ms = _parse_range(m_range)
    ns = _parse_range(n_range) if n_range else ms
    # `witnesses.build`'s first check, on the largest m or n, before any certify.
    serialize.check_limits(max(ms[-1], ns[-1]), 1, error=ParameterOutOfRange)
    rows = []
    failed = False
    for operation, spec in OPERATIONS.items():
        low = spec.witness.min_m
        n_values = [n for n in ns if n >= low] if spec.binary else [None]
        for m in ms:
            if m < low:
                continue
            for n in n_values:
                report = certify(operation, m, n, seed=seed)
                if spec.expects_tight and not report.tight:
                    failed = True
                rows.append((report, _verdict(report)))
    if fmt == "json":
        click.echo(json.dumps(
            [dict(report.to_dict(), verdict=v) for report, v in rows]
        ))
    elif fmt == "csv":
        lines = ["operation,m,n,formula,formula_value,constructed,lower_bound,verdict"]
        for report, v in rows:
            lines.append(
                f"{report.operation.value},{report.m},"
                f"{'' if report.n is None else report.n},"
                f"{OPERATIONS[report.operation].formula_text},{report.formula_value},"
                f"{report.constructed_size},{report.lower_bound},{v}"
            )
        click.echo("\n".join(lines))
    else:
        header = (
            f"{'operation':<16}{'m':>3}{'n':>3}  {'formula':<12}"
            f"{'value':>6}{'built':>6}{'lower':>6}  verdict"
        )
        click.echo(header)
        click.echo("-" * len(header))
        for report, v in rows:
            click.echo(
                f"{report.operation.value:<16}{report.m:>3}"
                f"{'' if report.n is None else report.n:>3}  "
                f"{OPERATIONS[report.operation].formula_text:<12}"
                f"{report.formula_value:>6}{report.constructed_size:>6}"
                f"{report.lower_bound:>6}  {v}"
            )
    if failed:
        sys.exit(4)


@main.command()
@click.argument("automaton", type=click.Path())
@click.option("--max-len", "max_len", type=click.IntRange(min=0), required=True)
def enumerate(automaton, max_len):
    """List accepted words up to a length bound (λ prints as ~)."""
    nfa = serialize.load(automaton)
    for word in enumerate_words(nfa, max_len):
        click.echo(nfa.alphabet.text(word) or "~")


if __name__ == "__main__":
    main()
