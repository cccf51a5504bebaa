"""Command-line interface.

Subcommands: solve (one mode or a whole Fourier-mode assembly), table
(compare against the embedded worked-solution tables), sums (divisor
convolutions), combine (integrated-correlator style combinations), verify
(exact operator and boundary check of a solution document), alpha-sum
(zero-mode homogeneous coefficient total).

Exit codes (part of the public contract):
    0   solved / all comparisons equal
    1   verification or comparison mismatch: P(particular) - source is not
        exactly zero, the boundary data differ from the ones recomputed
        from the Constant series, or a computed table differs exactly from
        the printed one
    2   lambda is not of the form r(r+1) (no solution in the ansatz class)
    3   alpha or beta is not a half-integer
    4   no solution on the derived degree windows; the document names the
        windows and the inconsistent constraint rows, with "retries": 0
    5   mode is obstructed (log-bearing leading term at y^{-r})
    6   no fixture table for the requested parameters
    7   a log(y) power beyond the cap (laurent.LOG_CAP), e.g. in a verify input
    64  usage error or unreadable input, including a document value of the
        wrong JSON type, a `verify` input of a schema other than
        eisenmodes/mode-solution/1 (the error names the schema found, or
        says there is none), a `verify` input with a cell key not of its
        expression's kind or a symbol the package never writes (such as
        zeta(2) or ln_prime(4)), a `verify` input that is not the document
        of the mode it states (the error names the keys that differ), a
        frequency at or above the prime test's bound (scalars.factorize
        names it), a `verify` input with a number past the reader's digit
        bound (scalars.READ_DIGITS_MAX, named in the error), a `sums`
        partial sum, and a `sums` value, that leaves double range
    141 stdout was closed by its reader (for example `| head -c 10`) before
        the document was written; nothing more is written.  128 + SIGPIPE,
        as a shell reports a process the signal ended

Every document goes to stdout, or to the --output file, and holds no NaN or
Infinity: an alpha sum's partial_sums keep only the limits whose sum is a
finite double.  A command lifts Python's int/str digit limit while it runs,
so an answer of any size is written; ``main`` restores the limit on return,
and `verify` bounds each number it reads itself.  Codes 7 and 64 write only
a {"error": ...} object to stderr.  `solve` takes --n1 and --n2 (one mode) or --n (a whole mode); a
flag that only the other form reads is a usage error.  The degree windows are derived from the source (see solver); no flag
sets or widens them.  `verify` checks a mode document by one form rule: it
reads the mode, writes it back with ModeSolution.to_json_obj and requires
the sorted JSON text of every key but UNVERIFIED_KEYS (report,
classification, latex: outside the verified claim) to equal the input's,
derived fields such as source_full and case included.  It then applies the
mode operator of the particular part's kind (bessel.mode_operator) and
compares the image exactly with the source rebuilt from the document's
params and (n1, n2); it checks the document's alpha and its obstruction
(message and terms), by JSON text, against homogeneous.boundary_reference on the
document's own particular part: the Constant small-y series, a route that
shares only the K_0/K_1 table of series.k_flat_series (checked in the tests
against an independent oracle) with the choose_alpha that solve runs.  `table` and `combine` compare the
computed expressions exactly with the printed ones (fixtures.compare_expressions).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .bessel import expr_latex, mode_operator
from .divisors import (
    convolution_partial_sums,
    ramanujan_convolution,
    ramanujan_log_convolution,
    sigma_float_table,
)
from .fixtures import (
    FixtureError,
    compare_expressions,
    fixture_combination,
    fixture_modes,
    fixture_particular,
)
from .homogeneous import (
    T_MINUS_2_WEIGHTS,
    assemble_mode,
    boundary_reference,
    combine,
    mode_solution_from_json_obj,
    solve_mode,
    zero_mode_alpha_sum,
)
from .laurent import LogCapExceeded
from .scalars import _read_int
from .solver import NoSolutionInWindow
from .sources import Normalization, Params, classify_params

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_NOT_TRIANGULAR = 2
EXIT_NOT_HALF_INTEGER = 3
EXIT_NO_SOLUTION = 4
EXIT_OBSTRUCTED = 5
EXIT_NO_FIXTURE = 6
EXIT_LOG_CAP = 7
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141

# exception -> exit code for failures a command raises; the first matching row
# wins (LogCapExceeded, FixtureError and json's decode error are ValueErrors).
# Anything else, such as the solver's AssertionError invariants, is a bug and
# keeps its traceback.
ERROR_EXITS = (
    (LogCapExceeded, EXIT_LOG_CAP),
    ((ValueError, OSError, KeyError, OverflowError), EXIT_USAGE),
)


# the keys of a mode document outside what `verify` checks: solver
# diagnostics, the parameter classification and the LaTeX rendering
UNVERIFIED_KEYS = {"report", "classification", "latex"}

SIEVE_LIMIT_MAX = 10**7  # largest `sums --limit`; the sieve takes seconds at 10^6

# solve flags read only by the single-mode path (--n1, --n2) or only by the
# assembly path (--n); giving one with the other path is a usage error
SINGLE_MODE_FLAGS = ("n1", "n2", "format")
ASSEMBLY_FLAGS = ("cutoff", "no_decay")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so they exit 64 with {"error": ...}."""

    def error(self, message):
        raise ValueError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_half(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse half-integer {text!r}") from exc


def _parse_r(text: str) -> int:
    r = _positive_int(text)
    return r * (r + 1)


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _sieve_limit(text: str) -> int:
    if _positive_int(text) > SIEVE_LIMIT_MAX:
        raise argparse.ArgumentTypeError(f"{text!r} exceeds the sieve bound {SIEVE_LIMIT_MAX}")
    return int(text)


def _emit(doc, output) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        # flushed here, so that a closed pipe raises inside main
        print(text, flush=True)


def _comparison(computed, printed, used) -> dict:
    """computed against printed, exactly: the verdict equal, equal_with_erratum
    (printed needed the errata in `used`) or mismatch, with the first 6
    differences."""
    diffs = compare_expressions(computed, printed)
    return {
        "verdict": "mismatch" if diffs else "equal_with_erratum" if used else "equal",
        "errata": [f"{c}/{cell}: {reason}" for c, cell, reason in used],
        "differences": diffs[:6],
    }


def _no_solution(exc: NoSolutionInWindow, cls):
    doc = {
        "classification": cls.kind,
        "error": "no_solution_in_window",
        "retries": exc.retries,
        "windows": None if exc.windows is None else {str(c): list(w) for c, w in exc.windows.items()},
        "inconsistent_rows": [str(r) for r in exc.inconsistent_rows[:8]],
    }
    return doc, EXIT_NOT_TRIANGULAR if cls.kind == "lambda_not_triangular" else EXIT_NO_SOLUTION


def cmd_solve(args):
    cls = classify_params(args.alpha, args.beta, args.lam)
    if cls.kind == "not_half_integer":
        return {"classification": cls.kind}, EXIT_NOT_HALF_INTEGER
    if args.n is None and (args.n1 is None or args.n2 is None):
        raise ValueError("give either --n1 and --n2, or --n with --cutoff")
    foreign = SINGLE_MODE_FLAGS if args.n is not None else ASSEMBLY_FLAGS
    stray = ["--" + dest.replace("_", "-") for dest in foreign if getattr(args, dest) is not None]
    if stray:
        raise ValueError(f"{', '.join(stray)} cannot be combined with "
                         + ("--n" if args.n is not None else "--n1 and --n2"))
    params = Params(args.alpha, args.beta, args.lam, Normalization(args.normalization))

    if args.n is not None:
        cutoff = abs(args.n) + 4 if args.cutoff is None else args.cutoff
        try:
            asm = assemble_mode(params, args.n, cutoff, decay=not args.no_decay)
        except NoSolutionInWindow as exc:
            return _no_solution(exc, cls)
        doc = asm.to_json_obj()
        doc["classification"] = cls.kind
        if cls.kind == "lambda_not_triangular":
            return doc, EXIT_NOT_TRIANGULAR
        return doc, EXIT_OBSTRUCTED if asm.obstructed else EXIT_OK

    try:
        mode = solve_mode(params, args.n1, args.n2)
    except NoSolutionInWindow as exc:
        return _no_solution(exc, cls)
    doc = mode.to_json_obj()
    doc["classification"] = cls.kind
    if args.format == "latex":
        doc["latex"] = {
            "particular": expr_latex(mode.particular),
            "alpha": None if mode.alpha is None else mode.alpha.latex(),
        }
    return doc, EXIT_OBSTRUCTED if mode.obstruction is not None else EXIT_OK


def cmd_table(args):
    try:
        cases = fixture_modes(args.alpha, args.beta, args.lam)
    except FixtureError:
        return ({"error": "no_fixture", "params": f"({args.alpha},{args.beta},{args.lam})"},
                EXIT_NO_FIXTURE)
    params = Params(args.alpha, args.beta, args.lam, Normalization.PUBLISHED)
    verdicts = []
    for case, pairs in cases.items():
        if args.cases and case not in args.cases:
            continue
        for (n1, n2) in pairs:
            used = []
            printed = fixture_particular(args.alpha, args.beta, args.lam, n1, n2,
                                         errata_used=used)
            mode = solve_mode(params, n1, n2)
            verdicts.append({"case": case, "n1": n1, "n2": n2,
                             **_comparison(mode.particular, printed, used)})
    doc = {"schema": "eisenmodes/table-comparison/1", "entries": verdicts}
    return doc, EXIT_MISMATCH if any(v["verdict"] == "mismatch" for v in verdicts) else EXIT_OK


def cmd_sums(args):
    result = (ramanujan_log_convolution if args.log else ramanujan_convolution)(args.a, args.b, args.s)
    doc = {
        "a": args.a,
        "b": args.b,
        "s": args.s,
        "log_weighted": bool(args.log),
        "status": result.status,
        "closed_form": None if result.closed_form is None else result.closed_form.to_json_obj(),
        "latex": None if result.closed_form is None else result.closed_form.latex(),
        "numeric": _fmt(result.numeric),
    }
    if args.limit:
        weight = (0.0, 1.0) if args.log else (1.0, 0.0)
        try:
            value = convolution_partial_sums(sigma_float_table(args.a, args.limit),
                                             sigma_float_table(args.b, args.limit),
                                             args.s, weight, (args.limit,))[args.limit]
        except (OverflowError, ZeroDivisionError):  # d^a, d^b or n^s past a double
            value = math.inf
        if not math.isfinite(value):  # or a product, or the sum
            raise ValueError(f"the partial sum up to --limit {args.limit} leaves double range")
        doc["partial_sum"] = {"limit": args.limit, "value": _fmt(value)}
    return doc, EXIT_OK


def cmd_combine(args):
    used = []
    try:
        fixture = fixture_combination(args.n1, args.n2, errata_used=used)
    except FixtureError as exc:
        return ({"error": "no_fixture", "n1": args.n1, "n2": args.n2, "reason": str(exc)},
                EXIT_NO_FIXTURE)
    comb = combine(T_MINUS_2_WEIGHTS, args.n1, args.n2, free_constants=["C1"])
    doc = comb.to_json_obj()
    doc["comparison"] = _comparison(comb.table, fixture, used)
    return doc, EXIT_MISMATCH if doc["comparison"]["verdict"] == "mismatch" else EXIT_OK


def _boundary_parts(alpha, obstruction) -> dict:
    """The JSON of a mode's alpha, obstruction terms and message, null where none."""
    obs = obstruction.to_json_obj() if obstruction is not None else {}
    return {"alpha": alpha.to_json_obj() if alpha is not None else None,
            "leading": obs.get("leading"), "message": obs.get("message")}


def _boundary(mode) -> dict:
    """The document's boundary data against the Constant series of its own particular.

    status: ok (alpha is the recomputed one), obstructed (the reported
    obstruction, message and terms, is exactly the recomputed one), mismatch,
    free (the zero mode) or no_basis (lambda is not triangular).  The
    document's alpha, obstruction terms (``leading``) and ``message`` are
    compared with the recomputed ones as JSON text, and a mismatch names each
    part that differs with its recomputed value: null where the recomputed
    mode has none, and ``leading`` cut to its first 6 terms.
    """
    r = mode.params.r
    if mode.alpha_free:
        return {"status": "free"}
    if r is None:
        return {"status": "no_basis"}
    alpha, obstruction = boundary_reference(mode.particular, r, mode.n1, mode.n2)
    stated = _boundary_parts(mode.alpha, mode.obstruction)
    differ = {key: value for key, value in _boundary_parts(alpha, obstruction).items()
              if json.dumps(value, sort_keys=True) != json.dumps(stated[key], sort_keys=True)}
    if not differ:
        return {"status": "ok" if obstruction is None else "obstructed"}
    if differ.get("leading"):
        differ["leading"] = differ["leading"][:6]
    return {"status": "mismatch", **differ}


def _rewritten_keys(doc: dict, written: dict) -> list:
    """The keys outside UNVERIFIED_KEYS whose sorted JSON text differs between
    the document and the mode written back from it; a key in one only differs."""
    keys = (doc.keys() | written.keys()) - UNVERIFIED_KEYS
    return sorted(k for k in keys if k not in doc or k not in written
                  or json.dumps(doc[k], sort_keys=True) != json.dumps(written[k], sort_keys=True))


def cmd_verify(args):
    try:
        with open(args.input) as fh:
            doc = json.load(fh, parse_int=_read_int)
        mode = mode_solution_from_json_obj(doc)
        differ = _rewritten_keys(doc, mode.to_json_obj())
    except (TypeError, ArithmeticError, RecursionError) as exc:
        # a value of the wrong JSON type, a zero denominator or nesting deeper
        # than the stack is bad input, not a mismatch
        raise ValueError(f"malformed solution document: {exc}") from exc
    if differ:
        raise ValueError("the mode written back differs from the document in " + ", ".join(differ))
    diffs = compare_expressions(mode_operator(mode.params.lam, mode.particular),
                                mode.source.full())
    operator = {"status": "mismatch" if diffs else "exact-zero"}
    if diffs:
        operator["differences"] = diffs[:6]
    boundary = _boundary(mode)
    ok = not diffs and boundary["status"] != "mismatch"
    doc = {
        "schema": "eisenmodes/verification/3",
        "input": args.input,
        "operator": operator,
        "boundary": boundary,
        "pass": ok,
    }
    return doc, EXIT_OK if ok else EXIT_MISMATCH


def cmd_alpha_sum(args):
    cls = classify_params(args.alpha, args.beta, args.lam)
    if cls.kind == "not_half_integer":
        return {"classification": cls.kind}, EXIT_NOT_HALF_INTEGER
    params = Params(args.alpha, args.beta, args.lam, Normalization(args.normalization))
    try:
        total = zero_mode_alpha_sum(params, args.method)
    except NoSolutionInWindow as exc:
        return _no_solution(exc, cls)
    return total.to_json_obj(), EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="eisenmodes",
        description="Exact Fourier-mode solver for products of non-holomorphic Eisenstein series",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def params_args(p):
        p.add_argument("--alpha", type=_parse_half, required=True, help='e.g. "3/2"')
        p.add_argument("--beta", type=_parse_half, required=True)
        lam = p.add_mutually_exclusive_group(required=True)
        lam.add_argument("--lambda", dest="lam", type=int)
        lam.add_argument("--r", dest="lam", metavar="R", type=_parse_r,
                         help="alternative to --lambda: lambda = r(r+1)")

    p = sub.add_parser("solve", help="solve one (n1, n2) mode or a full mode assembly")
    params_args(p)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--n", type=int, help="assemble the full Fourier mode n (with --cutoff)")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--no-decay", action="store_true", default=None,
                   help="skip the decay-exponent scan")
    p.add_argument("--format", choices=["json", "latex"], help="default json")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("table", help="compare solver output against the embedded tables")
    params_args(p)
    p.add_argument("--cases", nargs="*", help="restrict to these cases",
                   choices=["zero_mode", "left", "right", "generic", "anti_diagonal"])
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("sums", help="divisor convolution sums in closed form")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--log", action="store_true", help="log-weighted variant")
    p.add_argument("--limit", type=_sieve_limit,
                   help=f"also print a partial sum up to this bound (at most {SIEVE_LIMIT_MAX})")
    p.set_defaults(fn=cmd_sums)

    p = sub.add_parser("combine", help="the T-2 combination against its printed table")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.set_defaults(fn=cmd_combine)

    p = sub.add_parser("verify", help="exact operator and boundary check of a solution document")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("alpha-sum", help="zero-mode homogeneous coefficient total")
    params_args(p)
    p.add_argument("--method", choices=["RamanujanExact", "FormalRamanujan"],
                   default="RamanujanExact")
    p.set_defaults(fn=cmd_alpha_sum)

    for name in ("solve", "alpha-sum"):
        sub.choices[name].add_argument("--normalization", default=Normalization.PUBLISHED.value,
                                       choices=[n.value for n in Normalization])
    for p in sub.choices.values():
        p.add_argument("--output", help="write the JSON document to a file")
    return top


def main(argv=None) -> int:
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        doc, code = args.fn(args)
        _emit(doc, args.output)
    except SystemExit:  # --help; usage errors raise ValueError instead
        return EXIT_OK
    except BrokenPipeError:
        # the reader is gone, so there is no one to tell; stdout goes to
        # devnull so that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        code = next((c for kinds, c in ERROR_EXITS if isinstance(exc, kinds)), None)
        if code is None:
            raise
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
    finally:
        sys.set_int_max_str_digits(digits)
    return code


if __name__ == "__main__":
    sys.exit(main())
