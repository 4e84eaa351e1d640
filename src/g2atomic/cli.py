"""Command line interface.

Subcommands:

    atomic <a> <b>        atomic expansion of the canonical element
    kf <a> <b> <c> <d>    generalized Kostka-Foulkes polynomial
    standard <a> <b>      canonical element in the standard basis
    expand --level <i> <a> <b>
                          definitional expansion of the level-i element
    verify [--max-a A] [--max-b B]
                          run every invariant over a sweep (defaults 8)

Each subcommand takes --format text|json|latex (verify prints text for
latex).  Exit codes: 0 success, 1 usage, domain or output error or any
other error while computing, 2 verification failure; main() alone sets
them, and maps argparse's 2 for a usage error to 1.  Same argv,
byte-identical output.

Each command computes its result in full; main() then renders the line
as it writes it.  An error before the first write leaves stdout empty; a
failure while writing may leave part of a line.  Either way the call
exits 1 with one line on stderr, or none if the reader closed the pipe.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Iterator

from . import adjusted
from .combo import CANONICAL, pre_canonical
from .render import combination_parts, json_pairs, render_poly

_FORMATS = ("text", "json", "latex")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="g2atomic",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=_FORMATS, default="text")
        return p

    p = add("atomic", "atomic expansion of the canonical element at (a, b)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--method", choices=("adjusted", "precanonical"),
                   default="adjusted",
                   help="which of the two equivalent pipelines to run; the "
                        "positive adjusted route is the default, the "
                        "pre-canonical route its oracle")

    p = add("kf", "Kostka-Foulkes polynomial for lambda=(a, b), mu=(c, d)")
    for name in ("a", "b", "c", "d"):
        p.add_argument(name, type=int)

    p = add("standard", "canonical element at (a, b) in the standard basis")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add("expand", "definitional expansion of the level-i element at (a, b)")
    p.add_argument("--level", type=int, required=True, metavar="I",
                   help="level in 2..6")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add("verify", "run every invariant over a dominant-weight sweep")
    p.add_argument("--max-a", type=int, default=8)
    p.add_argument("--max-b", type=int, default=8)
    return parser


# Each command imports the modules only it uses, so that a call loads no
# more of the package than it runs.

def _atomic_command(args) -> tuple[int, Iterable[str]]:
    lam = (args.a, args.b)
    if args.method == "precanonical":
        from .precanonical import atomic as route
    else:
        route = adjusted.atomic_second
    return 0, combination_parts(route(lam), CANONICAL, lam, args.format)


def _kf_command(args) -> tuple[int, Iterable[str]]:
    from . import kostka
    lam, mu = (args.a, args.b), (args.c, args.d)
    p = kostka.kostka_foulkes(lam, mu)
    if args.format == "json":
        return 0, (f'{{"lambda": [{lam[0]}, {lam[1]}], "mu": [{mu[0]}, {mu[1]}], '
                   f'"poly": {json_pairs(p)}}}',)
    return 0, (render_poly(p, args.format),)


def _standard_command(args) -> tuple[int, Iterable[str]]:
    from . import kostka
    lam = (args.a, args.b)
    x = kostka.canonical_to_standard(lam)
    return 0, combination_parts(x, CANONICAL, lam, args.format)


def _expand_command(args) -> tuple[int, Iterable[str]]:
    lam = (args.a, args.b)
    from . import precanonical
    x = precanonical.defn_precanonical(args.level, lam)
    return 0, combination_parts(x, pre_canonical(args.level), lam, args.format)


def _verify_command(args) -> tuple[int, Iterable[str]]:
    from . import checks
    results = checks.sweep(args.max_a, args.max_b)
    ok = all(c.ok for c in results)
    if args.format == "json":
        import json
        obj = {"max_a": args.max_a, "max_b": args.max_b,
               "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                          for c in results],
               "ok": ok}
        return (0 if ok else 2), (json.dumps(obj),)
    lines = []
    for c in results:
        mark = "ok  " if c.ok else "FAIL"
        tail = f" ({c.detail})" if c.detail else ""
        lines.append(f"{mark} {c.name}{tail}")
    lines.append(f"{'all checks passed' if ok else 'VERIFICATION FAILED'} "
                 f"(sweep a <= {args.max_a}, b <= {args.max_b})")
    return (0 if ok else 2), ("\n".join(lines),)


_COMMANDS = {"atomic": _atomic_command, "kf": _kf_command,
             "standard": _standard_command, "expand": _expand_command,
             "verify": _verify_command}


# Parts are written in chunks of about this many characters: a write per
# part would cost a system call per 8 KiB of output, stdout's own chunk.
_CHUNK = 1 << 15


def _chunks(parts: Iterable[str]) -> Iterator[str]:
    """parts, joined into strings of _CHUNK characters or more, but the last."""
    chunk, size = [], 0
    for part in parts:
        chunk.append(part)
        size += len(part)
        if size >= _CHUNK:
            yield "".join(chunk)
            chunk, size = [], 0
    yield "".join(chunk)


def _fail(command: str, exc: Exception) -> int:
    """Report exc in one line on stderr (a repr is one line); return 1."""
    message = str(exc) if isinstance(exc, (ValueError, OSError)) else repr(exc)
    if isinstance(exc, MemoryError):
        message = f"out of memory running {command}"
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    try:
        code, parts = _COMMANDS[args.command](args)
    except Exception as exc:
        # A domain error, a lack of memory, a failed fork or a fault of the
        # program: one line on stderr, never a traceback.
        return _fail(args.command, exc)
    try:
        sys.stdout.writelines(_chunks(parts))
        sys.stdout.write("\n")
        sys.stdout.flush()
    except OSError as exc:
        # A reader that closed early ends the call quietly; any other write
        # error (a full disk, say) gets one line.  Either way, point stdout
        # at the null device so that the flush at interpreter exit does not
        # fail again.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except Exception as exc:
        # The line is rendered as it is written, so whatever rendering
        # raises lands here, after part of the line may have gone out.
        return _fail(args.command, exc)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
