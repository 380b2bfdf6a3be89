"""Command-line front end.

Every construction and check is exposed as one subcommand emitting JSON (the
canonical format; CSV for density series, a human format with no stability
promise).  All algorithms are deterministic and seedless, so identical
invocations produce byte-identical output.

Exit codes: 0 success, 1 invalid arguments, 2 resource/budget exhaustion,
3 internal verification failure.  Errors print one machine-parsable JSON line
on stderr.  Environment overrides use the SPLITLAB_ prefix and lose to
explicit flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from . import constructions, density, northcott, series, traceio
from .constructions import SplittingSpec
from .errors import ResourceBudgetError, VerificationError
from .multiquadratic import MultiquadField
from .primes import DEFAULT_AP_BUDGET, DEFAULT_SIEVE_CEILING, PrimeRange

_ENV_PREFIX = "SPLITLAB_"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _env(name: str) -> Optional[str]:
    return os.environ.get(_ENV_PREFIX + name)


# budget name: (SPLITLAB_ variable, default)
_BUDGETS = {
    "ap": ("BUDGET_AP", DEFAULT_AP_BUDGET),
    "sieve": ("BUDGET_SIEVE", DEFAULT_SIEVE_CEILING),
    "modulus bits": ("MODULUS_BITS", constructions.DEFAULT_MODULUS_BIT_BUDGET),
    "stage cap": ("STAGE_CAP", constructions.DEFAULT_STAGE_CAP),
}


def _budget(name: str, flag: Optional[int] = None) -> int:
    """One budget from its flag, its SPLITLAB_ variable or its default; it must be positive."""
    env_name, value = _BUDGETS[name]
    raw = _env(env_name)
    if flag is not None:
        value = flag
    elif raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"environment {_ENV_PREFIX}{env_name}={raw!r} is not an integer")
    if value <= 0:
        raise ValueError(f"budget {name} must be positive, got {value}")
    return value


def _prime_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"expected a comma-separated integer list, got {raw!r}")


@functools.cache  # one per process: no command mutates a parsed default=[] list
def build_parser() -> _Parser:
    """The splitlab parser; each subcommand offers exactly the settings it reads."""
    parser = _Parser(prog="splitlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, help: str, budgets=(), formats=("json", "human")) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=formats, default=None)
        p.add_argument("--out", metavar="PATH", default=None)
        for budget in budgets:
            p.add_argument(f"--budget-{budget}", type=int, default=None, metavar="N")
        p.set_defaults(formats=formats)
        return p

    p = command("construct-quadratic", "quadratic field with prescribed splitting", ["ap"])
    p.add_argument("--split", type=_prime_list, default=[])
    p.add_argument("--inert", type=_prime_list, default=[])
    p.add_argument("--ramified", type=_prime_list, default=[])
    p.add_argument("--two", choices=("split", "inert", "ramified"), default=None)
    p.add_argument("--signature", choices=("real", "complex"), default="real")

    p = command("thm12-tower", "divergence tower with certified stages", ["ap", "sieve"])
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--sum-target", type=float, default=1.0)

    p = command("prop71-tower", "split-prime tower with discriminant-norm growth",
                ["ap", "sieve"])
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--sum-target", type=float, default=1.0)

    p = command("sfrak-sum", "partial sum of the splitting series over a prime range",
                ["sieve"])
    p.add_argument("--basis", type=_prime_list, default=[])
    p.add_argument("--prime-floor", type=int, default=2)
    p.add_argument("--prime-ceiling", type=int, required=True)
    p.add_argument("--odd-only", action="store_true")
    p.add_argument("--terms", action="store_true")

    p = command("adjoin-i-bound", "convergence bound for a tower trace with i adjoined",
                ["sieve"])
    p.add_argument("--in", dest="trace_path", required=True, metavar="PATH")
    p.add_argument("--prime-ceiling", type=int, default=10**6)

    p = command("northcott-bounds", "two-sided bounds for a finite prime set")
    p.add_argument("--primes", type=_prime_list, required=True)

    p = command("northcott-select", "prime window hitting a target bound interval", ["sieve"])
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = command("density-check", "totally split prime counts against the expected density",
                ["sieve"], formats=("json", "csv", "human"))
    p.add_argument("--basis", type=_prime_list, default=[])
    p.add_argument("--prime-ceiling", type=int, required=True)
    p.add_argument("--residue", type=int, choices=(1, 3), default=None)
    p.add_argument("--per-decade", type=int, default=4)

    p = command("inert-companion",
                "smallest companion prime with prescribed reciprocity behaviour", ["ap"])
    p.add_argument("--p", dest="p", type=int, required=True)
    p.add_argument("--mod-power", type=int, required=True, metavar="M",
                   help="companion must be 1 mod 2^M")
    p.add_argument("--want", choices=("inert", "split"), required=True)

    p = command("verify", "re-derive every certificate in a trace file", ["sieve"])
    p.add_argument("trace_path", metavar="PATH")

    return parser


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _series_doc(report: series.SeriesReport, command: str) -> dict:
    return {
        "command": command,
        "version": 1,
        "field_degree": report.field_degree,
        "prime_lo": report.prime_lo,
        "prime_hi": report.prime_hi,
        "partial_sum": report.partial_sum,
        "tail_upper_bound": report.tail_upper_bound,
        "total_upper_bound": report.total_upper_bound,
        "per_prime_terms": (
            None
            if report.per_prime_terms is None
            else [[p, e, f, t] for p, e, f, t in report.per_prime_terms]
        ),
        "chunk_size": None,  # kept so version-1 documents keep their keys
    }


def _human(doc: dict) -> str:
    lines = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        elif isinstance(value, list) and len(value) > 8:
            lines.append(f"{prefix[:-1]}: [{len(value)} entries]")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", doc)
    return "\n".join(lines) + "\n"


def _output_format(args) -> str:
    """--format, else SPLITLAB_FORMAT, else json; it must be a format the command offers."""
    fmt = args.format or _env("FORMAT") or "json"
    if fmt not in args.formats:
        raise ValueError(
            f"environment {_ENV_PREFIX}FORMAT={fmt!r} is not one of {', '.join(args.formats)}"
        )
    return fmt


def _emit(args, doc: dict, csv_text: Optional[str] = None) -> None:
    if args.format == "json":
        text = traceio.dumps_canonical(doc)
    elif args.format == "csv":
        text = csv_text
    else:
        text = _human(doc)
    out = args.out or _env("OUT")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _cmd_construct_quadratic(args) -> None:
    spec = SplittingSpec(
        split=frozenset(args.split),
        inert=frozenset(args.inert),
        ramified=frozenset(args.ramified),
        two_behavior=args.two or constructions.TWO_UNCONSTRAINED,
        signature=(
            constructions.SIGNATURE_COMPLEX
            if args.signature == "complex"
            else constructions.SIGNATURE_REAL
        ),
    )
    m = constructions.construct_prescribed_quadratic(
        spec,
        ap_budget=_budget("ap", args.budget_ap),
        modulus_bit_budget=_budget("modulus bits"),
    )
    _emit(args, traceio.quadratic_doc(spec, m))


def _cmd_tower(args, builder) -> None:
    trace = builder(
        args.stages,
        args.sum_target,
        ap_budget=_budget("ap", args.budget_ap),
        sieve_ceiling=_budget("sieve", args.budget_sieve),
        modulus_bit_budget=_budget("modulus bits"),
        stage_cap=_budget("stage cap"),
    )
    _emit(args, traceio.trace_to_doc(trace))


def _cmd_sfrak_sum(args) -> None:
    report = series.partial_sum(
        MultiquadField.from_generators(args.basis),
        PrimeRange(args.prime_floor, args.prime_ceiling),
        include_two=not args.odd_only,
        with_terms=args.terms,
        sieve_ceiling=_budget("sieve", args.budget_sieve),
    )
    _emit(args, _series_doc(report, "sfrak-sum"))


def _cmd_adjoin_i_bound(args) -> None:
    sieve = _budget("sieve", args.budget_sieve)
    with open(args.trace_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    trace = traceio.trace_from_doc(doc, sieve_ceiling=sieve)
    report = constructions.certify_adjoin_i_convergence(
        trace, args.prime_ceiling, sieve_ceiling=sieve
    )
    _emit(args, _series_doc(report, "adjoin-i-bound"))


def _cmd_northcott_bounds(args) -> None:
    bounds = northcott.northcott_bounds(args.primes)
    _emit(args, {
        "command": "northcott-bounds",
        "version": 1,
        "primes": list(bounds.prime_set),
        "lower": bounds.lower,
        "upper": bounds.upper,
    })


def _cmd_northcott_select(args) -> None:
    window, bounds = northcott.select_prime_window(
        args.r, args.epsilon, sieve_ceiling=_budget("sieve", args.budget_sieve)
    )
    _emit(args, {
        "command": "northcott-select",
        "version": 1,
        "r": args.r,
        "epsilon": args.epsilon,
        "primes": window,
        "lower": bounds.lower,
        "upper": bounds.upper,
    })


def _cmd_density_check(args) -> None:
    field = MultiquadField.from_generators(args.basis)
    reports = density.density_checkpoints(
        field,
        args.prime_ceiling,
        args.residue,
        per_decade=args.per_decade,
        sieve_ceiling=_budget("sieve", args.budget_sieve),
    )
    final = reports[-1]
    doc = {
        "command": "density-check",
        "version": 1,
        "basis": list(final.field_basis),
        "x": final.x,
        "count": final.count,
        "expected": final.expected,
        "ratio": final.ratio,
        "residue_filter": final.residue_filter,
        "checkpoints": [
            {"x": r.x, "count": r.count, "expected": r.expected, "ratio": r.ratio}
            for r in reports
        ],
    }
    _emit(args, doc, csv_text=density.reports_to_csv(reports))


def _cmd_inert_companion(args) -> None:
    q = constructions.search_inert_companion(
        args.p, args.mod_power, args.want, budget=_budget("ap", args.budget_ap)
    )
    _emit(args, {
        "command": "inert-companion",
        "version": 1,
        "p": args.p,
        "mod_power": args.mod_power,
        "want": args.want,
        "q": q,
    })


def _cmd_verify(args) -> None:
    with open(args.trace_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    issues = traceio.verify_trace_doc(doc, sieve_ceiling=_budget("sieve", args.budget_sieve))
    _emit(args, {
        "command": "verify",
        "version": 1,
        "construction": doc.get("construction"),
        "verified": not issues,
        "issues": issues,
    })
    if issues:
        raise VerificationError("; ".join(issues[:5]))


_DISPATCH = {
    "construct-quadratic": _cmd_construct_quadratic,
    # the builders are looked up per call, so a wrapped module attribute is what runs
    "thm12-tower": lambda args: _cmd_tower(args, constructions.build_divergence_tower),
    "prop71-tower": lambda args: _cmd_tower(args, constructions.build_split_prime_tower),
    "sfrak-sum": _cmd_sfrak_sum,
    "adjoin-i-bound": _cmd_adjoin_i_bound,
    "northcott-bounds": _cmd_northcott_bounds,
    "northcott-select": _cmd_northcott_select,
    "density-check": _cmd_density_check,
    "inert-companion": _cmd_inert_companion,
    "verify": _cmd_verify,
}


def _diagnose(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}},
                                sort_keys=True) + "\n")


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.format = _output_format(args)
        _DISPATCH[args.command](args)
        return 0
    except (_UsageError, ValueError) as exc:
        _diagnose("invalid-argument", str(exc))
        return 1
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        _diagnose("invalid-argument", str(exc))
        return 1
    except ResourceBudgetError as exc:
        _diagnose("resource", str(exc))
        return 2
    except VerificationError as exc:
        _diagnose("verification", str(exc))
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
