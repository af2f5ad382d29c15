"""Command-line surface: detection, counting, reductions, verification.

Every command, selfcheck included, writes one report through ``_report``:
a JSON document on stdout by default, or with ``--format plain`` one
``path: JSON`` line per leaf of the same document (``result.contains:
true``).  Diagnostics go to stderr.  Exit codes: 0 success, 1 verification
or expectation failure, 2 usage/parse error or a result too long to print.
Permutation arguments are inline one-line notation, or ``@path`` to read
from a file.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import click

from permpat import backend, gap, matching, psi
from permpat.core import Permutation

PARSE_ERROR = 2
CHECK_FAILED = 1


class _Echo:
    """A permutation text to echo in a report: ``to_text()`` output, or an
    input already in that form.  It holds only ASCII digits, '-' and single
    spaces, which json.dumps would copy unchanged."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __str__(self) -> str:
        return self.text


def _load_permutation(value: str) -> tuple[Permutation, _Echo]:
    """The permutation of an inline or ``@path`` argument, and its echo."""
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            value = fh.read()
    perm, text = Permutation.parse_with_text(value)
    return perm, _Echo(text)


def _parse_epsilon(value: str) -> Fraction:
    """P/Q or a decimal, strictly between 0 and 1/2.

    A decimal exponent is bounded before Fraction expands it into a power
    of ten: the numerator and the denominator have at most len(mantissa) +
    |exponent| digits, which must stay within Python's int-to-str limit.
    """
    mantissa, marker, exponent = value.lower().partition("e")
    if marker:
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        try:
            too_long = abs(int(exponent)) + len(mantissa) > limit
        except ValueError:  # not a decimal exponent: Fraction reports the literal
            too_long = False
        if too_long:
            raise ValueError(f"epsilon's decimal exponent would give it more than {limit} digits")
    try:
        eps = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"epsilon {value!r} has a zero denominator") from None
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    return eps


def _parse_big_int(value: str) -> int:
    """Plain decimal, or BASE^EXP shorthand for the large bound checks.

    BASE^EXP is refused before it is computed when the power could exceed
    gap.POWER_BIT_BUDGET bits.
    """
    if "^" in value:
        base, exp = (int(part) for part in value.split("^", 1))
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        gap.require_power_within_budget(base, exp)
        return base**exp
    return int(value)


def _json_pieces(obj) -> Iterator[str]:
    """json.dumps(obj) in pieces, for dicts with str keys; each _Echo's text
    is one piece, between quotes, so no encoder scans it."""
    if isinstance(obj, _Echo):
        yield '"'
        yield obj.text
        yield '"'
    elif isinstance(obj, dict):
        yield "{"
        for i, (key, val) in enumerate(obj.items()):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _json_pieces(val)
        yield "}"
    else:
        yield json.dumps(obj)


def _leaves(obj, path: str = "") -> Iterator[tuple[str, object]]:
    """(dotted path, value) of each leaf of a report, in report order: dict
    keys and list indices are joined with dots; an empty dict or list is a
    leaf."""
    if isinstance(obj, (dict, list)) and obj:
        for key, val in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _leaves(val, f"{path}.{key}" if path else str(key))
    else:
        yield path, obj


@dataclass
class _Record:
    """What a command reports: its echoed inputs, its rendered result, and
    the stderr line of a failed check (exit 1), if any."""

    inputs: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)
    failure: str | None = None


@contextlib.contextmanager
def _report(command: str, fmt: str) -> Iterator[_Record]:
    """Time a command that fills the yielded record, then write its report.

    A ValueError or OSError raised inside, while loading, computing or
    rendering, is one stderr line and exit 2, with nothing on stdout.
    Otherwise the report is written, and a set ``failure`` is printed to
    stderr with exit 1.  The report is one JSON document, or with ``plain``
    one ``path: JSON`` line per leaf of that same document.
    """
    started = time.perf_counter()
    record = _Record()
    try:
        yield record
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(PARSE_ERROR)
    report = {
        "command": command,
        "backend": backend.BACKEND_NAME,
        "inputs": record.inputs,
        "result": record.result,
        "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    # json.dumps escapes every control character, so there is no ANSI code
    # for click.echo to strip; writing the pieces directly skips its copy
    # and scan of a line that holds a whole echoed text
    if fmt == "json":
        sys.stdout.writelines(_json_pieces(report))
        sys.stdout.write("\n")
    else:
        for path, leaf in _leaves(report):
            sys.stdout.write(f"{path}: ")
            sys.stdout.writelines(_json_pieces(leaf))
            sys.stdout.write("\n")
    sys.stdout.flush()
    if record.failure is not None:
        click.echo(record.failure, err=True)
        sys.exit(CHECK_FAILED)


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "plain"]), default="json",
    help="Report format on stdout.",
)


@click.group()
def main() -> None:
    """Permutation pattern toolkit: detection, counting, and reductions."""


@main.command()
@click.option("--pattern", required=True, help="Pattern permutation (inline or @file).")
@click.option("--text", required=True, help="Text permutation (inline or @file).")
@click.option("--left-aligned", is_flag=True, help="Require the copy to use the first text position.")
@click.option("--expect", type=click.Choice(["yes", "no"]), default=None,
              help="Exit nonzero when the verdict differs.")
@_format_option
def detect(pattern: str, text: str, left_aligned: bool, expect: str | None, fmt: str) -> None:
    """Decide whether the text contains the pattern."""
    with _report("detect", fmt) as rec:
        pi, pi_echo = _load_permutation(pattern)
        tau, tau_echo = _load_permutation(text)
        rec.inputs = {"pattern": pi_echo, "text": tau_echo, "left_aligned": left_aligned}
        if left_aligned:
            verdict = matching.contains_left_aligned(pi, tau)
        else:
            verdict = matching.contains(pi, tau)
        rec.result = {"contains": verdict}
        if expect is not None and verdict != (expect == "yes"):
            rec.failure = f"expectation failed: expected {expect}"


@main.command()
@click.option("--pattern", default=None, help="Pattern permutation (unused for --mode inversions).")
@click.option("--text", required=True, help="Text permutation (inline or @file).")
@click.option("--mode", type=click.Choice(["exact", "left", "inversions", "approx", "naive"]),
              default="exact")
@_format_option
def count(pattern: str | None, text: str, mode: str, fmt: str) -> None:
    """Count pattern copies (exact, left-aligned, inversions, approximate)."""
    if mode != "inversions" and pattern is None:
        raise click.UsageError("--pattern is required for this mode")
    with _report("count", fmt) as rec:
        tau, tau_echo = _load_permutation(text)
        rec.inputs = {"text": tau_echo, "mode": mode}
        if mode == "inversions":
            rec.result = {"count": str(matching.count_inversions(tau))}
        else:
            pi, rec.inputs["pattern"] = _load_permutation(pattern)
            if mode == "exact":
                rec.result = {"count": str(matching.count_copies(pi, tau))}
            elif mode == "naive":
                rec.result = {"count": str(matching.count_copies_naive(pi, tau))}
            elif mode == "approx":
                rec.result = {"estimate": gap._decimal(matching.approx_count(pi, tau), "estimate")}
            else:
                direct = matching.count_left_aligned(pi, tau)
                diff = matching.count_left_aligned_by_difference(pi, tau)
                rec.result = {
                    "direct": str(direct),
                    "difference": str(diff),
                    "agree": direct == diff,
                }
                if direct != diff:
                    rec.failure = "left-aligned counts disagree"


@main.group(name="psi")
def psi_group() -> None:
    """Reduction from partitioned subgraph isomorphism."""


def _load_instance(path: str) -> psi.PsiInstance:
    """Read a PSI instance file; any malformed document is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return psi.PsiInstance.from_json(text)
    except (TypeError, IndexError, KeyError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed instance: {type(exc).__name__}: {exc}") from exc


@psi_group.command(name="build")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@_format_option
def psi_build(instance_file: str, fmt: str) -> None:
    """Build and dump the labeled gadget for an instance file."""
    with _report("psi build", fmt) as rec:
        rec.inputs = {"instance": instance_file}
        instance = _load_instance(instance_file)
        psi.require_gadget_within(instance, gap.DEFAULT_MAX_TEXT_LEN)
        rec.result = psi.reduce_psi(instance).to_json_obj()


@psi_group.command(name="verify")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--max-text-len", type=int, default=psi.DEFAULT_ORACLE_TEXT_CAP,
              help="Reject instances whose gadget text is longer than this.")
@_format_option
def psi_verify(instance_file: str, max_text_len: int, fmt: str) -> None:
    """Run both oracles on an instance and compare."""
    with _report("psi verify", fmt) as rec:
        rec.inputs = {"instance": instance_file}
        report = psi.verify_reduction(_load_instance(instance_file), max_text_len=max_text_len)
        rec.result = report.to_json_obj()
        if not report.agree:
            rec.failure = "oracle disagreement"


@main.group(name="gap")
def gap_group() -> None:
    """Gap-producing inflation of left-aligned detection instances."""


@gap_group.command(name="build")
@click.option("--pattern", required=True)
@click.option("--text", required=True)
@click.option("--epsilon", required=True, help="Rational P/Q with 0 < P/Q < 1/2.")
@_format_option
def gap_build(pattern: str, text: str, epsilon: str, fmt: str) -> None:
    """Run the full reduction (threshold branch or inflation)."""
    with _report("gap build", fmt) as rec:
        pi, pi_echo = _load_permutation(pattern)
        tau, tau_echo = _load_permutation(text)
        eps = _parse_epsilon(epsilon)
        rec.inputs = {"pattern": pi_echo, "text": tau_echo, "epsilon": str(eps)}
        rec.result = gap.build_gap_instance(pi, tau, eps).to_json_obj()


@gap_group.command(name="core")
@click.option("--pattern", required=True)
@click.option("--text", required=True)
@click.option("--alpha", type=int, required=True)
@click.option("--cap", type=int, default=None, help="Safety cap on the inflated text length.")
@_format_option
def gap_core(pattern: str, text: str, alpha: int, cap: int | None, fmt: str) -> None:
    """Run the inflation step alone with an explicit alpha."""
    with _report("gap core", fmt) as rec:
        pi, pi_echo = _load_permutation(pattern)
        tau, tau_echo = _load_permutation(text)
        rec.inputs = {"pattern": pi_echo, "text": tau_echo, "alpha": alpha}
        core = gap.build_core(pi, tau, alpha, max_text_len=cap)
        rec.result = {
            "inflated_pattern": _Echo(core.pattern.to_text()),
            "inflated_text": _Echo(core.text.to_text()),
            "k_prime": core.k_prime,
            "n_prime": core.n_prime,
        }


@gap_group.command(name="check-bounds")
@click.option("--epsilon", required=True, help="Rational P/Q with 0 < P/Q < 1/2.")
@click.option("--k", "k_", type=int, required=True, help="Source pattern length.")
@click.option("--n", "n_", required=True,
              help="Source text length; decimal or BASE^EXP shorthand.")
@_format_option
def gap_check_bounds(epsilon: str, k_: int, n_: str, fmt: str) -> None:
    """Verify the exact inequality chains at an above-threshold scale."""
    with _report("gap check-bounds", fmt) as rec:
        eps = _parse_epsilon(epsilon)
        rec.inputs = {"epsilon": str(eps), "k": k_, "n": n_}
        report = gap.check_bounds(_parse_big_int(n_), k_, eps)
        rec.result = report.to_json_obj()
        if not report.all_hold:
            rec.failure = "bound check failed"


@gap_group.command(name="verify")
@click.option("--pattern", required=True)
@click.option("--text", required=True)
@click.option("--alpha", type=int, required=True)
@_format_option
def gap_verify(pattern: str, text: str, alpha: int, fmt: str) -> None:
    """Run the yes/no-case property battery on one desk-scale input."""
    with _report("gap verify", fmt) as rec:
        pi, pi_echo = _load_permutation(pattern)
        tau, tau_echo = _load_permutation(text)
        rec.inputs = {"pattern": pi_echo, "text": tau_echo, "alpha": alpha}
        report = gap.verify_core(pi, tau, alpha)
        rec.result = report.to_json_obj()
        if not report.checks_pass:
            rec.failure = "gap construction checks failed"


@main.command(name="selfcheck")
@click.option("--scale", type=click.Choice(["quick", "full"]), default="quick")
@_format_option
def selfcheck_cmd(scale: str, fmt: str) -> None:
    """Run the acceptance criteria suites."""
    from permpat import selfcheck

    with _report("selfcheck", fmt) as rec:
        rec.inputs = {"scale": scale}
        results = selfcheck.run_all(scale)
        failed = sum(1 for r in results if not r.passed)
        rec.result = {
            "passed": len(results) - failed,
            "failed": failed,
            "criteria": [
                {
                    "id": r.cid,
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                    "elapsed_s": round(r.elapsed_s, 2),
                }
                for r in results
            ],
        }
        if failed:
            rec.failure = f"selfcheck failed: {failed} of {len(results)} criteria"


if __name__ == "__main__":
    main()
